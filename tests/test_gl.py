"""Bracket, superform, and centralizer oracles for the gl(M|N) layer."""

import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from superw.gl import (
    LieSuperElement,
    ad_matrix,
    basis_indices,
    bracket,
    centralizer_dims,
    e,
    minus,
    pair_parity,
    parity,
    plus,
    rational_rank,
    superform,
)
from superw.pyramid import e_pi, enumerate_pyramids

P1, P2 = plus(1), plus(2)
M1 = minus(1)


def test_box_index_basics():
    assert str(plus(3)) == "3"
    assert str(minus(2)) == "-2"
    assert repr(plus(3)) == "box(3)"
    assert repr(minus(2)) == "box(-2)"
    assert parity(plus(5)) == 0
    assert parity(minus(5)) == 1
    # plus boxes sort before minus boxes
    assert sorted([minus(1), plus(2), plus(1)]) == [plus(1), plus(2), minus(1)]
    for make in (plus, minus):
        with pytest.raises(ValueError):
            make(0)
    # equal boxes built separately are one dict key
    seen = {plus(2): "first"}
    seen[plus(2)] = "second"
    assert seen == {plus(2): "second"}


def test_bracket_even_pair():
    # [e_{1,2}, e_{2,1}] = e_{1,1} - e_{2,2}, the sl_2 triple inside gl(2)
    lhs = bracket(e(P1, P2), e(P2, P1))
    assert lhs == e(P1, P1) - e(P2, P2)


def test_bracket_odd_odd_is_anticommutator():
    x = e(P1, M1)
    y = e(M1, P1)
    assert bracket(x, y) == e(P1, P1) + e(M1, M1)
    assert bracket(x, x).is_zero()
    assert bracket(y, y).is_zero()


def test_superform_values():
    assert superform(e(P1, P1), e(P1, P1)) == 1
    assert superform(e(M1, M1), e(M1, M1)) == -1
    assert superform(e(P1, P2), e(P2, P1)) == 1
    assert superform(e(P1, P2), e(P1, P2)) == 0
    # supersymmetry flips the sign across an odd pair
    assert superform(e(P1, M1), e(M1, P1)) == 1
    assert superform(e(M1, P1), e(P1, M1)) == -1


def _parity_of(x: LieSuperElement) -> int:
    p = x.homogeneous_parity()
    assert p is not None
    return p


def test_super_antisymmetry_exhaustive_small():
    idx = basis_indices(2, 1)
    for (a, b), (c, d) in itertools.product(itertools.product(idx, repeat=2), repeat=2):
        x, y = e(a, b), e(c, d)
        sign = -1 if (pair_parity(a, b) and pair_parity(c, d)) else 1
        assert bracket(x, y) == (-sign) * bracket(y, x)


def test_jacobi_exhaustive_up_to_four_boxes():
    # [x,[y,z]] = [[x,y],z] + (-1)^{|x||y|} [y,[x,z]] over every basis triple
    for total in range(1, 5):
        for M in range(total + 1):
            N = total - M
            idx = basis_indices(M, N)
            pairs = list(itertools.product(idx, repeat=2))
            for (a, b), (c, d), (f, g) in itertools.product(pairs, repeat=3):
                x, y, z = e(a, b), e(c, d), e(f, g)
                sign = -1 if (pair_parity(a, b) and pair_parity(c, d)) else 1
                lhs = bracket(x, bracket(y, z))
                rhs = bracket(bracket(x, y), z) + sign * bracket(y, bracket(x, z))
                assert lhs == rhs, (M, N, (a, b), (c, d), (f, g))


def test_jacobi_sampled_five_boxes():
    rng = random.Random(51)
    for M in range(6):
        N = 5 - M
        idx = basis_indices(M, N)
        pairs = list(itertools.product(idx, repeat=2))
        for _ in range(400):
            (a, b), (c, d), (f, g) = rng.choice(pairs), rng.choice(pairs), rng.choice(pairs)
            x, y, z = e(a, b), e(c, d), e(f, g)
            sign = -1 if (pair_parity(a, b) and pair_parity(c, d)) else 1
            assert bracket(x, bracket(y, z)) == bracket(bracket(x, y), z) + sign * bracket(y, bracket(x, z))


@st.composite
def gl22_elements(draw):
    idx = basis_indices(2, 2)
    a = draw(st.sampled_from(idx))
    b = draw(st.sampled_from(idx))
    c = draw(st.integers(min_value=-4, max_value=4).filter(bool))
    return e(a, b, c)


@given(gl22_elements(), gl22_elements(), gl22_elements())
@settings(max_examples=150)
def test_superform_invariance(x, y, z):
    assert superform(bracket(x, y), z) == superform(x, bracket(y, z))


def test_element_arithmetic():
    x = e(P1, P2, Fraction(1, 2))
    assert (x - x).is_zero()
    assert (2 * x).terms[(P1, P2)] == 1
    assert (0 * x).is_zero() and (-x).terms == {(P1, P2): Fraction(-1, 2)}
    assert x.homogeneous_parity() == 0
    mixed = e(P1, P2) + e(P1, M1)
    assert mixed.homogeneous_parity() is None


def test_ad_matrix_rows_and_escape():
    x = e(P1, P2)
    diag = [(P1, P1), (P2, P2)]
    # [e_{1,2}, e_{2,1}] = e_{1,1} - e_{2,2}; [e_{1,2}, e_{1,2}] = 0
    assert ad_matrix(x, [(P2, P1), (P1, P2)], diag) == [[1, -1], [0, 0]]
    # the image leaves span(e_{1,1}), so there is no matrix
    assert ad_matrix(x, [(P2, P1)], [(P1, P1)]) is None
    assert ad_matrix(x, [], []) == []


def test_centralizer_dims_zero_element():
    zero = e(P1, P1) - e(P1, P1)
    assert centralizer_dims(zero, 1, 1) == (0, 0)


def test_centralizer_dims_regular_nilpotent_gl2():
    assert centralizer_dims(e(P1, P2), 2, 0) == (2, 0)


def test_centralizer_dims_rejects_odd():
    with pytest.raises(ValueError):
        centralizer_dims(e(P1, M1), 1, 1)


def test_rational_rank():
    assert rational_rank([[1, 2], [2, 4]]) == 1
    assert rational_rank([[Fraction(1, 2), 0], [0, 3]]) == 2
    assert rational_rank([[0, 0], [0, 0]]) == 0
    assert rational_rank([]) == 0


def test_rational_rank_matches_sympy():
    """Differential oracle: sympy's rank on seeded matrices of every shape from
    0x1 to 8x8. Each is a product of random factors of a chosen inner size, so
    many are rank-deficient, with some rows then zeroed, repeated or scaled by
    a Fraction. Entries are small ints, Fractions, or ints up to 10**12."""
    sympy = pytest.importorskip("sympy")
    rng = random.Random(20261018)
    draws = {
        "small": (lambda: rng.randint(-3, 3), lambda: rng.randint(-3, 3)),
        "fraction": (
            lambda: Fraction(rng.randint(-4, 4), rng.randint(1, 5)),
            lambda: Fraction(rng.randint(-9, 9), rng.randint(1, 7)),
        ),
        "large": (lambda: rng.randint(-1, 1), lambda: rng.randint(-10**12 // 8, 10**12 // 8)),
    }
    checked = deficient = biggest = 0
    for nrows in range(9):
        for ncols in range(1, 9):
            for left_draw, right_draw in draws.values():
                inner = rng.randint(0, min(nrows, ncols))
                left = [[left_draw() for _ in range(inner)] for _ in range(nrows)]
                right = [[right_draw() for _ in range(ncols)] for _ in range(inner)]
                rows = [
                    [sum((lr[t] * right[t][j] for t in range(inner)), 0) for j in range(ncols)]
                    for lr in left
                ]
                for r in range(nrows):
                    move = rng.choice(["keep", "keep", "zero", "repeat", "scale"])
                    other = rows[rng.randrange(nrows)]
                    if move == "zero":
                        rows[r] = [0] * ncols
                    elif move == "repeat":
                        rows[r] = list(other)
                    elif move == "scale":
                        c = Fraction(rng.choice([-1, 1]), rng.randint(1, 5))
                        rows[r] = [c * v for v in other]
                biggest = max([biggest] + [abs(v) for row in rows for v in row])
                flat = [sympy.Rational(v.numerator, v.denominator) for row in rows for v in row]
                expected = sympy.Matrix(nrows, ncols, flat).rank()
                assert rational_rank(rows) == expected, rows
                checked += 1
                deficient += 0 < expected < min(nrows, ncols)
    assert checked == 9 * 8 * 3
    assert deficient > 50
    assert 10**11 < biggest <= 10**12


def closed_form_codims(py) -> tuple[int, int]:
    """(d0, d1) from the rows alone: the Jordan blocks of e_pi are the rows,
    so dim z = sum over ordered row pairs of min(p_i, p_j), split by parity."""
    same = mixed = 0
    for i in range(1, py.nrows + 1):
        for j in range(1, py.nrows + 1):
            k = min(py.p[i - 1], py.p[j - 1])
            if py.row_sign(i) == py.row_sign(j):
                same += k
            else:
                mixed += k
    return py.M ** 2 + py.N ** 2 - same, 2 * py.M * py.N - mixed


def test_centralizer_dims_match_closed_form(gl36):
    count = 0
    for py in enumerate_pyramids(8):
        assert centralizer_dims(e_pi(py), py.M, py.N) == closed_form_codims(py), py
        count += 1
    assert count == 3000
    assert closed_form_codims(gl36) == (32, 26)
    assert centralizer_dims(e_pi(gl36), gl36.M, gl36.N) == (32, 26)
