"""Pyramid geometry oracles, the flagship example, and enumeration counts."""

import itertools

import pytest

import superw.pyramid as pyramid_mod
from superw.gl import LieSuperElement, bracket, e, minus, plus, superform
from superw.pyramid import (
    ShiftMatrix,
    adjacent_pairs,
    all_pairs,
    e_pi,
    enumerate_pyramids,
    enumerate_shapes,
    from_shift,
    good_pair_check,
    graded_basis,
    h_pi,
    vertical_adjacent_pairs,
)
from superw.pyramid import Pyramid
from superw.yangian import generator_parity


def test_flagship_attributes(gl36):
    py = gl36
    assert py.p == (2, 3, 4)
    assert py.nrows == 3
    assert py.ell == 4
    assert py.signs == "101"
    assert (py.M, py.N) == (3, 6)
    assert (py.m, py.n) == (1, 2)
    assert py.h_shift == -1
    assert py.q_check == (-1, -1, -1, 0)
    assert py.row_hat == (-1, 0, -1)
    assert len(py.boxes) == 9


def test_flagship_box_numbering(gl36):
    py = gl36
    # plus boxes run along their row; minus boxes run down columns, left to
    # right, independently of the plus numbering
    assert py.box_at(2, 2) == plus(1)
    assert py.box_at(2, 3) == plus(2)
    assert py.box_at(2, 4) == plus(3)
    assert py.box_at(3, 1) == minus(1)
    assert py.box_at(1, 2) == minus(2)
    assert py.box_at(3, 2) == minus(3)
    assert py.box_at(1, 3) == minus(4)
    assert py.box_at(3, 3) == minus(5)
    assert py.box_at(3, 4) == minus(6)
    assert not py.has_box(1, 1)
    with pytest.raises(KeyError):
        py.box_at(1, 1)
    assert py.row_boxes == (
        (minus(2), minus(4)),
        (plus(1), plus(2), plus(3)),
        (minus(1), minus(3), minus(5), minus(6)),
    )
    assert py.column_boxes == (
        (minus(1),),
        (minus(2), plus(1), minus(3)),
        (minus(4), plus(2), minus(5)),
        (plus(3), minus(6)),
    )


def test_flagship_column_coordinates(gl36):
    py = gl36
    assert [py.col_x_of_col(c) for c in range(1, 5)] == [-3, -1, 1, 3]
    assert py.col_x(plus(1)) == -1
    assert py.col_x(minus(1)) == -3
    assert py.col_x(minus(6)) == 3


def test_flagship_row_data(gl36):
    py = gl36
    assert py.row_first_col == (2, 2, 1)
    assert py.row_last_col == (3, 4, 4)
    for b in py.boxes:
        assert py.row_check(b) == py.row_hat[py.row(b) - 1]
    assert py.row_sign(1) == 1 and py.row_sign(2) == 0 and py.row_sign(3) == 1


def test_degree_is_column_difference(gl36):
    py = gl36
    assert py.degree((plus(2), plus(1))) == -2
    assert py.degree((plus(1), plus(3))) == 4
    for pr in all_pairs(py):
        i, j = pr
        assert py.degree(pr) == py.col_x(j) - py.col_x(i)
        assert py.degree((j, i)) == -py.degree(pr)


def test_flagship_e_pi(gl36):
    expected = {
        (plus(1), plus(2)): 1,
        (plus(2), plus(3)): 1,
        (minus(2), minus(4)): 1,
        (minus(1), minus(3)): 1,
        (minus(3), minus(5)): 1,
        (minus(5), minus(6)): 1,
    }
    assert e_pi(gl36).terms == expected
    assert set(adjacent_pairs(gl36)) == set(expected)


def test_h_pi_grades(gl36):
    # oracle for the eigenvalues good_pair_check reads off h_pi's diagonal:
    # bracketing h_pi picks out the degree of every pair
    py = gl36
    h = h_pi(py)
    # diagonal with entry -col_x(b) at each box
    assert h.terms == {(b, b): -py.col_x(b) for b in py.boxes}
    for py in enumerate_pyramids(6):
        h = h_pi(py)
        for pr in all_pairs(py):
            assert bracket(h, e(*pr)) == py.degree(pr) * e(*pr), (py, pr)
        assert bracket(h, e_pi(py)) == 2 * e_pi(py), py


def test_good_pair_check_rejects_corrupted_pairs(gl36, monkeypatch):
    py = gl36
    ep, hp = e_pi(py), h_pi(py)

    def verdict(e_new=ep, h_new=hp):
        monkeypatch.setattr(pyramid_mod, "e_pi", lambda _: e_new)
        monkeypatch.setattr(pyramid_mod, "h_pi", lambda _: h_new)
        return good_pair_check(py)

    assert verdict()
    assert not verdict(h_new=2 * hp)
    identity = LieSuperElement({(b, b): 1 for b in py.boxes})
    # a central shift of h_pi keeps every eigenvalue; of e_pi it breaks
    # [h, e] = 2e while leaving ad e unchanged
    assert verdict(h_new=hp + identity)
    assert not verdict(e_new=ep + identity)
    # shifting h_pi on the top row keeps [h, e_pi] = 2 e_pi but moves the
    # eigenvalues between rows off the grading
    top_row = LieSuperElement({(b, b): 2 for b in py.boxes if py.row(b) == 1})
    assert not verdict(h_new=hp + top_row)
    adjacent = adjacent_pairs(py)
    vertical = vertical_adjacent_pairs(py)[0]
    for pr in adjacent:
        assert not verdict(e_new=ep - e(*pr)), pr
        assert not verdict(e_new=ep - e(*pr) + e(*vertical)), pr
        # a rescaled edge keeps the grading good
        assert verdict(e_new=ep + e(*pr)), pr
    # includes off-diagonal terms that commute with e_pi, such as
    # e(minus(1), minus(4)), so [h, e_pi] = 2 e_pi alone does not catch them
    for (i, j) in all_pairs(py):
        if i != j:
            assert not verdict(h_new=hp + e(i, j)), (i, j)


def test_flagship_chi(gl36):
    py = gl36
    # chi(x) = (e_pi, x) under the supertrace form
    ep = e_pi(py)
    assert superform(ep, e(plus(2), plus(1))) == 1
    assert superform(ep, e(minus(4), minus(2))) == -1
    assert superform(ep, e(plus(1), plus(2))) == 0
    assert good_pair_check(py)


def test_graded_basis_partition(gl36):
    py = gl36
    m = graded_basis(py, "m")
    h = graded_basis(py, "h")
    pp = graded_basis(py, "p_prime")
    assert len(m) + len(h) + len(pp) == len(all_pairs(py)) == 81
    assert graded_basis(py, "p") == h + pp
    assert all(py.degree(pr) < 0 for pr in m)
    assert all(py.degree(pr) == 0 for pr in h)
    assert all(py.degree(pr) > 0 for pr in pp)
    # diagonal pairs lead the h block
    nd = len(py.boxes)
    assert all(i == j for (i, j) in h[:nd])
    with pytest.raises(ValueError):
        graded_basis(py, "q")


def test_box_and_basis_orders_match_explicit_key():
    # oracle: boxes ordered by an explicit (sign, ordinal) key and pairs
    # lexicographically in it, independent of how BoxIndex compares
    def box_key(b):
        return (b.sign, b.ordinal)

    def pair_key(pr):
        return (box_key(pr[0]), box_key(pr[1]))

    for py in enumerate_pyramids(5):
        boxes = [
            py.box_at(r, c)
            for r in range(1, py.nrows + 1)
            for c in range(1, py.ell + 1)
            if py.has_box(r, c)
        ]
        assert list(py.boxes) == sorted(boxes, key=box_key), py

        pairs = all_pairs(py)

        def by_degree(pr):
            return (py.degree(pr), pair_key(pr))

        m = sorted((pr for pr in pairs if py.degree(pr) < 0), key=by_degree)
        diag = sorted((pr for pr in pairs if pr[0] == pr[1]), key=pair_key)
        off = sorted(
            (pr for pr in pairs if pr[0] != pr[1] and py.degree(pr) == 0), key=pair_key
        )
        pp = sorted((pr for pr in pairs if py.degree(pr) > 0), key=by_degree)
        assert graded_basis(py, "m") == m, py
        assert graded_basis(py, "h") == diag + off, py
        assert graded_basis(py, "p_prime") == pp, py
        assert graded_basis(py, "p") == diag + off + pp, py


def test_vertical_adjacencies(gl36):
    py = gl36
    pairs = vertical_adjacent_pairs(py)
    assert len(pairs) == 5
    for a, b in pairs:
        assert py.col(a) == py.col(b)
        assert abs(py.row(a) - py.row(b)) == 1


def test_odd_generator_rows(gl36):
    # the rows i < n whose generators D/E/F are odd: exactly those where the
    # sign changes between rows i and i+1
    odd = {i for i in range(1, gl36.nrows) if generator_parity(gl36, i)}
    assert odd == {1, 2}


def test_column_rows_matches_boxes():
    for py in enumerate_pyramids(5):
        for c in range(1, py.ell + 1):
            expect = [r for r in range(1, py.nrows + 1) if py.has_box(r, c)]
            assert list(py.column_rows(c)) == expect, (py, c)
        for c in (0, py.ell + 1):
            with pytest.raises(KeyError):
                py.column_rows(c)


def test_shift_matrix():
    s = ShiftMatrix.from_rows([[0, 1, 1], [0, 0, 0], [1, 1, 0]])
    assert s.size == 3
    assert s.s(1, 2) == 1 and s.s(2, 1) == 0 and s.s(3, 1) == 1


def test_constructor_rejections():
    good = [[0, 1, 1], [0, 0, 0], [1, 1, 0]]
    with pytest.raises(ValueError):
        from_shift(good, 4, "10")  # sign word too short
    with pytest.raises(ValueError):
        from_shift(good, 2, "101")  # ell leaves row 1 empty
    with pytest.raises(ValueError):
        from_shift([[0, -1, 1], [0, 0, 0], [1, 1, 0]], 4, "101")
    with pytest.raises(ValueError):
        from_shift(good, 4, "102")  # sign letters must be 0/1
    # shift entries must already be ints and signs a str: nothing is coerced
    for bad in (1.5, 1.7, 1.0, True, "1"):
        with pytest.raises(ValueError, match="nonnegative integers"):
            from_shift([[0, bad, 1], [0, 0, 0], [1, 1, 0]], 4, "101")
    for signs in ([1, 0, 1], [0.9, 1, 1], ("1", "0", "1")):
        with pytest.raises(ValueError, match="signs must be a word"):
            from_shift(good, 4, signs)


def test_json_round_trip(gl36):
    doc = gl36.to_json()
    back = Pyramid.from_json(doc)
    assert back.p == gl36.p
    assert back.signs == gl36.signs
    assert back.ell == gl36.ell
    assert back.boxes == gl36.boxes


def test_from_json_rejects_non_integral_ell(gl36):
    doc = gl36.to_json()
    for bad in (4.0, 4.7, True, "4", None):
        with pytest.raises(ValueError, match="ell must be an integer"):
            Pyramid.from_json({**doc, "ell": bad})
    for bad in (1.5, 1.7, True, "1"):
        shift = [[0, bad, 1], [0, 0, 0], [1, 1, 0]]
        with pytest.raises(ValueError, match="nonnegative integers"):
            Pyramid.from_json({**doc, "shift": shift})
    with pytest.raises(ValueError, match="signs must be a word"):
        Pyramid.from_json({**doc, "signs": [1, 0.9, 1]})


def test_enumeration_hand_counts():
    # one box: a single cell; two boxes: a 2-row stack or a 2-column row
    assert len(list(enumerate_shapes(2))) == 3
    assert len(list(enumerate_pyramids(2))) == 8
    # three boxes add (3), two alignments of (1,2), and (1,1,1)
    assert len(list(enumerate_shapes(3))) == 7
    assert len(list(enumerate_pyramids(3))) == 26


def test_enumeration_counts_at_desk_scale(pyramids8):
    shapes = list(enumerate_shapes(8))
    assert len(shapes) == 183
    # every shape carries one pyramid per sign word
    assert len(pyramids8) == sum(2 ** sm.size for sm, _ in shapes) == 3000
    by_rows = {}
    for py in pyramids8:
        by_rows.setdefault((tuple(py.p), py.ell), set()).add(py.signs)
    for (p, _), words in by_rows.items():
        assert len(words) == 2 ** len(p)
    assert len(list(enumerate_pyramids(5))) == 206


def test_enumeration_invariants():
    for py in enumerate_pyramids(5):
        assert sum(py.p) == len(py.boxes) == py.M + py.N
        assert sum(py.q_check) == py.M - py.N
        assert len(py.signs) == py.nrows
        assert all(py.p[i] <= py.p[i + 1] for i in range(py.nrows - 1))
        # rows nest as column intervals
        for i in range(1, py.nrows):
            assert py.row_first_col[i] <= py.row_first_col[i - 1]
            assert py.row_last_col[i] >= py.row_last_col[i - 1]
        assert len(adjacent_pairs(py)) == sum(p - 1 for p in py.p)
        # the grid tables read the same boxes as box_at, row by row and
        # column by column, and each lists every box exactly once
        for r, boxes in enumerate(py.row_boxes, start=1):
            cols = range(py.row_first_col[r - 1], py.row_last_col[r - 1] + 1)
            assert boxes == tuple(py.box_at(r, c) for c in cols), (py, r)
            assert all(py.row(b) == r for b in boxes), (py, r)
        for c, boxes in enumerate(py.column_boxes, start=1):
            assert boxes == tuple(py.box_at(r, c) for r in py.column_rows(c)), (py, c)
            assert all(py.col(b) == c for b in boxes), (py, c)
        for table in (py.row_boxes, py.column_boxes):
            flat = [b for boxes in table for b in boxes]
            assert sorted(flat) == list(py.boxes), py


def test_two_box_pyramids_are_the_expected_ones():
    got = {(py.p, py.signs) for py in enumerate_pyramids(2)}
    assert got == {
        ((1,), "0"), ((1,), "1"),
        ((2,), "0"), ((2,), "1"),
        ((1, 1), "00"), ((1, 1), "01"), ((1, 1), "10"), ((1, 1), "11"),
    }
