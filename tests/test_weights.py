"""Shift weights eta and rho_tilde, checked against the oracle weights
rho_h, delta, beta, rho_bar and the root half-sums of weight_oracle."""

from fractions import Fraction

import pytest

from superw.gl import minus, parity, plus
from superw.pyramid import enumerate_pyramids, vertical_adjacent_pairs
from superw.tableau import Tableau, is_column_connected
from superw.weights import Weight, eta, is_onedim_h_weight, lambda_A, rho_tilde

from weight_oracle import RootPartition, beta, delta, rho_bar, rho_h, signed_root_sum

HALF = Fraction(1, 2)


def test_weight_algebra():
    b = plus(1)
    c = minus(1)
    w = Weight({b: 2, c: Fraction(1, 2)})
    v = Weight({b: -2})
    assert (w + v)[b] == 0
    assert (w + v)[c] == Fraction(1, 2)
    assert (w - w) == Weight({})
    assert (2 * w)[c] == 1
    assert Weight({b: 0}) == Weight({})
    assert w[minus(9)] == 0


def test_flagship_eta(gl36):
    w = eta(gl36)
    # (-1)^{tp}(h - trailing q sum), h = -1
    assert w[plus(1)] == 1 and w[plus(2)] == 0 and w[plus(3)] == -1
    assert w[minus(1)] == -2 and w[minus(3)] == -1
    assert w[minus(2)] == -1 and w[minus(4)] == 0
    assert w[minus(5)] == 0 and w[minus(6)] == 1


def test_flagship_rho_h(gl36):
    w = rho_h(gl36)
    for b in gl36.boxes:
        assert w[b] == (0 if parity(b) == 0 else -1)


def test_flagship_delta(gl36):
    w = delta(gl36)
    for b in gl36.boxes:
        assert w[b] == (-1 if parity(b) == 0 else 2)


def test_flagship_rho_tilde_coordinates(gl36):
    py = gl36
    w = rho_tilde(py)
    assert w == eta(py) + rho_h(py)
    for b in py.boxes:
        suffix = sum(py.q_check[py.col(b) - 1 :])
        expect = py.h_shift - py.row_check(b) - suffix
        assert w[b] == (-expect if parity(b) else expect)


def test_root_partition_structure(gl36):
    rp = RootPartition(gl36)
    roots = rp.all_roots()
    assert len(roots) == 81 - 9
    assert rp.row_plus | rp.row_zero | rp.row_minus == roots
    assert rp.col_plus | rp.col_zero | rp.col_minus == roots
    assert rp.cell("+", "0") == rp.col_plus & rp.row_zero
    # negation swaps the plus and minus halves
    assert {(j, i) for (i, j) in rp.col_plus} == rp.col_minus
    assert {(j, i) for (i, j) in rp.row_plus} == rp.row_minus


def test_signed_root_sum_single_roots():
    i, j = plus(1), plus(2)
    assert signed_root_sum([(i, j)]) == Weight({i: 1, j: -1})
    k = minus(1)
    # an odd root enters with a flipped sign
    assert signed_root_sum([(i, k)]) == Weight({i: -1, k: 1})
    assert signed_root_sum([(i, j)], HALF) == Weight({i: HALF, j: -HALF})


def test_half_sum_identities_small_sweep():
    for py in enumerate_pyramids(5):
        rp = RootPartition(py)
        upper = rp.col_zero & rp.row_plus
        assert beta(py) == signed_root_sum(rp.col_minus)
        assert rho_bar(py) == signed_root_sum(rp.col_plus | upper, HALF) - delta(py)
        assert rho_tilde(py) == signed_root_sum(rp.col_minus | upper, HALF) - delta(py)
        assert rho_tilde(py) == rho_bar(py) + beta(py)
        assert rho_tilde(py) == eta(py) + rho_h(py)


def test_single_minus_box_shifts():
    # the one-box odd pyramid separates the parity-signed shift from the
    # parity-blind one: rho_tilde = -eps with no roots in sight
    py = next(p for p in enumerate_pyramids(1) if p.signs == "1")
    b = py.boxes[0]
    assert rho_tilde(py)[b] == -1
    assert delta(py)[b] == 1
    assert rho_bar(py)[b] == -1
    assert beta(py)[b] == 0


def test_vertical_adjacency_relations(gl36):
    py = gl36
    w = rho_tilde(py)
    pairs = vertical_adjacent_pairs(py)
    assert len(pairs) == 5
    for a, b in pairs:
        up, down = (a, b) if py.row(a) < py.row(b) else (b, a)
        if parity(up) == parity(down):
            assert w[up] == w[down] + 1
        else:
            assert w[up] + w[down] == -1


def test_vertical_adjacency_relations_sweep():
    for py in enumerate_pyramids(5):
        w = rho_tilde(py)
        for a, b in vertical_adjacent_pairs(py):
            up, down = (a, b) if py.row(a) < py.row(b) else (b, a)
            if parity(up) == parity(down):
                assert w[up] == w[down] + 1
            else:
                assert w[up] + w[down] == -1


def test_lambda_A_reads_entries(gl36, worked_tableau):
    lam = lambda_A(worked_tableau)
    assert lam[gl36.box_at(2, 2)] == 1
    assert lam[gl36.box_at(3, 1)] == 3
    assert lam[gl36.box_at(1, 2)] == -2


def test_is_onedim_h_weight_matches_column_connectedness(gl36, worked_tableau):
    py = gl36
    lam = lambda_A(worked_tableau) - rho_tilde(py)
    assert is_onedim_h_weight(py, lam)
    # breaking one entry in a two-box column kills the property
    rows = worked_tableau.rows()
    rows[0][0] += 1
    broken = Tableau.from_rows(py, rows)
    assert not is_onedim_h_weight(py, lambda_A(broken) - rho_tilde(py))


def test_is_onedim_h_weight_exhaustive_tiny():
    # entry-wise: lambda_A - rho_tilde is a one-dimensional h-weight exactly
    # when the arrangement is column-connected
    from itertools import product

    pool = (-1, 0, 1)
    for py in enumerate_pyramids(4):
        rt = rho_tilde(py)
        nb = len(py.boxes)
        for filling in product(pool, repeat=nb):
            rows, k = [], 0
            for p in py.p:
                rows.append(filling[k : k + p])
                k += p
            A = Tableau.from_rows(py, rows)
            assert is_onedim_h_weight(py, lambda_A(A) - rt) == is_column_connected(A)
