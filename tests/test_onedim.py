"""Eigenvalue data, factorization solvers, and the symbolic module check."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from superw.onedim import (
    EigenvalueData,
    NonSplitError,
    _rational_roots,
    eigenvalues_of,
    elementary_symmetric,
    quotient_relation_check,
    solve_b_shifted,
    symbolic_module_check,
    tableau_from_eigenvalues,
    weight_space_search,
)
from superw.pyramid import enumerate_pyramids, from_shift
from superw.tableau import Tableau, is_column_connected, row_equivalent

from helpers import next_level_vanishes, random_cc

WORKED_FULL = ((2, 1), (3, 3, 1), (-1, -9, -11, -4))
WORKED_REDUCED = ((2, 1), (3,), (-1,))


def test_elementary_symmetric():
    assert elementary_symmetric([1, 2, 3]) == [1, 6, 11, 6]
    assert elementary_symmetric([Fraction(1, 2), -2]) == [1, Fraction(-3, 2), -1]
    assert elementary_symmetric([]) == [1]


@given(st.lists(st.fractions(max_denominator=20), min_size=1, max_size=5))
@settings(max_examples=80)
def test_elementary_symmetric_generates_polynomial(vals):
    # compare against the monic product evaluated at a sample point
    t = Fraction(7)
    n = len(vals)
    direct = 1
    for v in vals:
        direct *= t - v
    es = elementary_symmetric(vals)
    assert len(es) == n + 1
    viasym = sum((-1) ** k * es[k] * t ** (n - k) for k in range(n + 1))
    assert direct == viasym


def test_worked_eigenvalues(worked_tableau):
    data = eigenvalues_of(worked_tableau)
    assert data.full == WORKED_FULL
    assert data.reduced == WORKED_REDUCED
    assert data.levels == (2, 3, 4)
    assert data.signs == "101"


def test_from_reduced_rebuilds_full(gl36):
    data = EigenvalueData.from_reduced(gl36.signs, gl36.p, WORKED_REDUCED)
    assert data.full == WORKED_FULL
    assert quotient_relation_check(data)


def test_from_reduced_validates_row_lengths(gl36):
    with pytest.raises(ValueError):
        EigenvalueData.from_reduced(gl36.signs, gl36.p, ((2, 1), (3, 3), (-1,)))


def test_eigenvalue_json_round_trip(worked_tableau):
    data = eigenvalues_of(worked_tableau)
    doc = data.to_json()
    assert doc["a"][0] == ["2", "1"]
    assert EigenvalueData.from_json(doc) == data


def test_quotient_relation_perturbations(gl36):
    # bumping a reduced value stays consistent after re-derivation ...
    data = EigenvalueData.from_reduced(gl36.signs, gl36.p, ((2, 2), (3,), (-1,)))
    assert quotient_relation_check(data)
    # ... bumping a non-reduced slot of the full table cannot
    full = [list(r) for r in EigenvalueData.from_reduced(
        gl36.signs, gl36.p, WORKED_REDUCED
    ).full]
    full[1][1] += 1
    broken = EigenvalueData(gl36.signs, gl36.p, tuple(tuple(r) for r in full))
    assert not quotient_relation_check(broken)


def _one_row(length: int, sign: str):
    return from_shift([[0]], length, sign)


def test_solve_b_examples():
    # the b-side polynomial t^2 - 3t + 2 splits as (t-1)(t-2) either way:
    # the parity sign lives in the a <-> entry conversion, not in e_r(b)
    assert solve_b_shifted(_one_row(2, "0"), [[3, 2]]) == [[1, 2]]
    assert solve_b_shifted(_one_row(2, "1"), [[3, 2]]) == [[1, 2]]


def test_solve_b_non_split():
    with pytest.raises(NonSplitError):
        solve_b_shifted(_one_row(2, "0"), [[0, 1]])  # b^2 + 1 has no rational roots
    # (z - 1)(z^2 + 1): the rational root is divided out and the message
    # ends in the exact residual z^2 + 1
    with pytest.raises(NonSplitError, match=r": 1 0 1$"):
        solve_b_shifted(_one_row(3, "0"), [[1, 1, 1]])


def test_solvers_reject_misshapen_reduced_rows(gl36):
    # the flagship's reduced rows hold 2, 1 and 1 values
    for bad in ([[1]], [[2, 1, 5], [3], [-1]], [[2, 1], [3], [-1], [0]], [[2, 1], [], [-1]]):
        with pytest.raises(ValueError, match="reduced row"):
            solve_b_shifted(gl36, bad)
        with pytest.raises(ValueError, match="reduced row"):
            EigenvalueData.from_reduced(gl36.signs, gl36.p, bad)


def _fraction(q) -> Fraction:
    return Fraction(int(q.p), int(q.q))


def test_rational_roots_match_sympy():
    """Differential oracle for the only root finder: sympy's factorization
    over Q gives the rational roots with multiplicity and, when the
    polynomial does not split, the product of the remaining factors."""
    sympy = pytest.importorskip("sympy")
    z = sympy.Symbol("z")
    rng = random.Random(2024)
    split = non_split = 0
    for _ in range(150):
        poly = sympy.Poly(1, z, domain="QQ")
        for _ in range(rng.randint(0, 5)):
            root = sympy.Rational(rng.randint(-9, 9), rng.randint(1, 4))
            poly *= sympy.Poly(z - root, z, domain="QQ")
        if rng.random() < 0.5:
            # an irreducible quadratic or cubic factor
            while True:
                degree = rng.choice((2, 3))
                coeffs = [1] + [sympy.Rational(rng.randint(-6, 6), rng.randint(1, 3)) for _ in range(degree)]
                extra = sympy.Poly(coeffs, z, domain="QQ")
                if extra.is_irreducible:
                    break
            poly *= extra
        if poly.degree() < 1:
            continue
        coeffs = [_fraction(c) for c in poly.all_coeffs()]

        expected_roots = []
        residual = sympy.Poly(1, z, domain="QQ")
        for factor, mult in poly.factor_list()[1]:
            factor = factor.monic()
            if factor.degree() == 1:
                expected_roots += [-_fraction(factor.all_coeffs()[1])] * mult
            else:
                residual *= factor**mult

        if residual.degree() == 0:
            split += 1
            assert sorted(_rational_roots(coeffs)) == sorted(expected_roots)
        else:
            non_split += 1
            with pytest.raises(NonSplitError) as info:
                _rational_roots(coeffs)
            tail = str(info.value).rsplit(": ", 1)[1].split()
            assert [Fraction(t) for t in tail] == [_fraction(c) for c in residual.all_coeffs()]
    assert split > 20 and non_split > 20


def test_solve_b_shifted_round_trip(gl36, worked_tableau):
    data = eigenvalues_of(worked_tableau)
    rows = solve_b_shifted(gl36, data)
    # b values undo the parity sign and the row shift
    assert [sorted(r) for r in rows] == [[1, 1], [1, 1, 1], [-4, 1, 1, 1]]


def test_tableau_from_eigenvalues(gl36, worked_tableau):
    data = eigenvalues_of(worked_tableau)
    B = tableau_from_eigenvalues(gl36, data)
    assert is_column_connected(B)
    assert row_equivalent(B, worked_tableau)
    back = eigenvalues_of(B)
    assert back == data


def test_zero_data_comes_from_constant_rows(gl36):
    # reduced rows hold p_i - p_{i-1} values: 2, 1 and 1 on the flagship
    zero = ((0, 0), (0,), (0,))
    B = tableau_from_eigenvalues(gl36, zero)
    assert B.rows() == [[-1, -1], [0, 0, 0], [-1, -1, -1, -1]]
    assert is_column_connected(B)


def test_weight_space_search(gl36, worked_tableau):
    rows = worked_tableau.rows()
    lam = weight_space_search(gl36, rows)
    assert lam is not None
    # row contents are a multiset: order inside a row must not matter
    lam2 = weight_space_search(gl36, [rows[0], rows[1], [-2, -2, 3, -2]])
    assert lam2 is not None
    assert weight_space_search(gl36, [[0, 0], [1, 1, 1], [0, 0, 0, 0]]) is None
    with pytest.raises(ValueError):
        weight_space_search(gl36, [[0], [1, 1, 1], [0, 0, 0, 0]])


def test_symbolic_module_check(gl36, worked_tableau):
    assert symbolic_module_check(worked_tableau)
    assert next_level_vanishes(worked_tableau)
    rows = worked_tableau.rows()
    rows[2] = [-2, 3, -2, -2]
    with pytest.raises(ValueError):
        symbolic_module_check(Tableau.from_rows(gl36, rows))  # not column-connected


def test_round_trip_on_random_tableaux():
    rng = random.Random(40)
    pool = list(enumerate_pyramids(5))
    for _ in range(120):
        py = rng.choice(pool)
        A = random_cc(py, rng)
        assert is_column_connected(A)
        data = eigenvalues_of(A)
        B = tableau_from_eigenvalues(py, data)
        assert row_equivalent(A, B)
        assert eigenvalues_of(B) == data
        assert quotient_relation_check(data)


def test_quotient_relation_check_matches_sympy(gl36):
    """Differential oracle for the quotient check: with
    A_j(x) = 1 + sum_r a_j^{(r)} x^r, sympy's polynomial division of
    A_{j+1} by A_j must leave remainder 0 and a quotient of degree at most
    p_{j+1} - p_j, for every j.  Tables come from eigenvalues_of on seeded
    tableaux, and again with one non-reduced slot changed."""
    sympy = pytest.importorskip("sympy")
    x = sympy.Symbol("x")

    def oracle(data):
        polys = [sympy.Poly(list(reversed((1,) + row)), x, domain="QQ") for row in data.full]
        for j in range(len(polys) - 1):
            quotient, remainder = sympy.div(polys[j + 1], polys[j])
            if not remainder.is_zero or quotient.degree() > data.levels[j + 1] - data.levels[j]:
                return False
        return True

    rng = random.Random(13)
    pool = [py for py in enumerate_pyramids(5) if py.nrows > 1] + [gl36]
    verdicts = []
    for _ in range(300):
        py = rng.choice(pool)
        data = eigenvalues_of(random_cc(py, rng))
        assert quotient_relation_check(data) and oracle(data)
        slots = [(i, r) for i in range(1, py.nrows) for r in range(py.p[i] - py.p[i - 1], py.p[i])]
        if not slots:
            continue
        i, r = rng.choice(slots)
        full = [list(row) for row in data.full]
        full[i][r] += rng.choice((1, -1, Fraction(1, 2), Fraction(-2, 3)))
        bad = EigenvalueData(py.signs, py.p, full)
        verdict = quotient_relation_check(bad)
        assert verdict == oracle(bad), (py, full)
        verdicts.append(verdict)
    assert verdicts.count(False) > 150
