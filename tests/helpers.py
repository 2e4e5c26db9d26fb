"""Helpers shared by the test modules: seeded column-connected tableaux and
the next-level E/F check of a one-dimensional module."""

from fractions import Fraction

from superw.pbw import evaluate_one_dim
from superw.tableau import Tableau
from superw.weights import lambda_A, rho_tilde
from superw.yangian import E, F


def random_cc(py, rng):
    """A column-connected tableau on py: each column draws its top entry
    from rng and chains the rest down by the parity rule."""
    rows = [[None] * p for p in py.p]
    for c in range(1, py.ell + 1):
        val = Fraction(rng.randint(-8, 8), rng.choice((1, 1, 2, 3)))
        prev = None
        for r in py.column_rows(c):
            if prev is not None:
                val = val - 1 if py.row_sign(prev) == py.row_sign(r) else -1 - val
            rows[r - 1][c - py.row_first_col[r - 1]] = val
            prev = r
    return Tableau.from_rows(py, rows)


def next_level_vanishes(A: Tableau) -> bool:
    """E_i and F_i one level above their lowest admissible levels act by
    zero on the one-dimensional module of the column-connected tableau A,
    as symbolic_module_check finds at the lowest levels themselves."""
    py = A.pyramid
    lam = lambda_A(A) - rho_tilde(py)
    for i in range(1, py.nrows):
        if evaluate_one_dim(py, E(py, i, py.shift.s(i, i + 1) + 2), lam) != 0:
            return False
        if evaluate_one_dim(py, F(py, i, py.shift.s(i + 1, i) + 2), lam) != 0:
            return False
    return True
