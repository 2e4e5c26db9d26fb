"""Acceptance gate: one test per numbered criterion.

Each test performs its full check and files a short annotation; the
conftest terminal-summary hook prints one "criterion N: PASS/FAIL" line
per test at the end of the run.
"""

import random
from fractions import Fraction
from itertools import combinations_with_replacement, product
from math import comb

import pytest

from superw.gl import centralizer_dims, parity, rational_rank
from superw.onedim import (
    EigenvalueData,
    eigenvalues_of,
    quotient_relation_check,
    symbolic_module_check,
    tableau_from_eigenvalues,
    weight_space_search,
)
from superw.pbw import evaluate_one_dim, is_W_invariant
from superw.pyramid import (
    e_pi,
    enumerate_pyramids,
    from_shift,
    good_pair_check,
    vertical_adjacent_pairs,
)
from superw.tableau import (
    Tableau,
    classify,
    find_cc_representative,
    is_column_connected,
    row_equivalent,
)
from superw.weights import eta, is_onedim_h_weight, lambda_A, rho_tilde
from superw.yangian import (
    D,
    E,
    F,
    RELATION_IDS,
    T,
    iter_relation_instances,
    relation_report,
    truncation_vanishing,
)

from helpers import next_level_vanishes, random_cc
from weight_oracle import RootPartition, beta, delta, rho_bar, rho_h, signed_root_sum

HALF = Fraction(1, 2)

# four-row host for the relation families that need distant or super
# commutators; chosen so row pair (2, 3) crosses parities
PY4_SHIFT = [[0, 0, 1, 2], [0, 0, 1, 2], [0, 0, 0, 1], [1, 1, 1, 0]]
PY4 = from_shift(PY4_SHIFT, 4, "0101")

WORKED_FULL = ((2, 1), (3, 3, 1), (-1, -9, -11, -4))


def _nilpotent_matrix(x, boxes):
    idx = {b: k for k, b in enumerate(boxes)}
    n = len(boxes)
    mat = [[0] * n for _ in range(n)]
    for (i, j), c in x.terms.items():
        if i in idx and j in idx:
            mat[idx[i]][idx[j]] = c
    return mat


def _jordan_type(mat):
    """Partition of a nilpotent matrix from the ranks of its powers."""
    n = len(mat)
    ranks = [n]
    power = [row[:] for row in mat]
    while True:
        r = rational_rank(power)
        ranks.append(r)
        if r == 0:
            break
        power = [
            [sum(power[i][k] * mat[k][j] for k in range(n)) for j in range(n)]
            for i in range(n)
        ]
    # blocks of size >= k number rank(A^{k-1}) - rank(A^k)
    geq = [ranks[k - 1] - ranks[k] for k in range(1, len(ranks))]
    parts = []
    for size in range(len(geq), 0, -1):
        count = geq[size - 1] - (geq[size] if size < len(geq) else 0)
        parts.extend([size] * count)
    return tuple(sorted(parts, reverse=True))


def test_criterion_01_flagship_fidelity(gl36, acceptance_details):
    """The nine-box flagship reproduces every frozen structure constant."""
    py = gl36
    assert py.p == (2, 3, 4)
    assert (py.M, py.N, py.m, py.n) == (3, 6, 1, 2)
    assert py.h_shift == -1
    assert py.q_check == (-1, -1, -1, 0)
    assert py.row_hat == (-1, 0, -1)
    assert good_pair_check(py)

    d0, d1 = centralizer_dims(e_pi(py), py.M, py.N)
    assert (d0, d1) == (32, 26)

    # Jordan types of the nilpotent on each parity block: plus rows give a
    # single length-3 chain, minus rows give chains of lengths 4 and 2
    x = e_pi(py)
    pboxes = [b for b in py.boxes if parity(b) == 0]
    mboxes = [b for b in py.boxes if parity(b) == 1]
    pm = _nilpotent_matrix(x, pboxes)
    mm = _nilpotent_matrix(x, mboxes)
    assert _jordan_type(pm) == (3,)
    assert _jordan_type(mm) == (4, 2)

    acceptance_details[1] = "p=(2,3,4), codims (32,26), Jordan (3)|(4,2)"


def test_criterion_02_good_pairs_at_scale(pyramids8, acceptance_details):
    """Every pyramid with at most 8 boxes defines a good pair."""
    assert len(pyramids8) == 3000
    for py in pyramids8:
        assert good_pair_check(py), (py.p, py.ell, py.signs)
    acceptance_details[2] = "3000 pyramids, all sign words"


def test_criterion_03_membership_and_truncation(gl36, acceptance_details):
    """Generators lie in the invariant subalgebra; the tower truncates."""
    py = gl36
    checked = 0
    for i in (1, 2, 3):
        for r in (1, 2, 3):
            x = D(py, i, r)
            assert x.in_U_p()
            assert is_W_invariant(py, x), ("D", i, r)
            checked += 1
    for gen in (E, F):
        for i in (1, 2):
            for r in (1, 2, 3):
                try:
                    x = gen(py, i, r)
                except ValueError:
                    continue  # below the admissibility threshold
                assert x.in_U_p()
                assert is_W_invariant(py, x), (gen.__name__, i, r)
                checked += 1
    # the top-row tower vanishes one past the row length, not before
    assert not T(py, 1, 1, 0, 2).is_zero()
    assert truncation_vanishing(py, py.p[0] + 1)
    acceptance_details[3] = f"{checked} generators invariant, truncation at r=3"


def _fits_budget(kw):
    r, s = kw.get("r"), kw.get("s")
    if r is not None and s is not None:
        if r + s > 4:
            return False
    elif r is not None and r > 3:
        return False
    return kw.get("t", 0) <= 3


def test_criterion_04_relations(gl36, acceptance_details):
    """The presentation holds symbolically at bounded levels."""
    first8 = set(RELATION_IDS[:8])
    later8 = set(RELATION_IDS[8:])

    n_flag = 0
    for rel, kw in iter_relation_instances(gl36, 3):
        if rel in first8 and _fits_budget(kw):
            assert relation_report(gl36, rel, **kw)["ok"], (rel, kw)
            n_flag += 1

    rng = random.Random(0x1234)
    small = list(enumerate_pyramids(5))
    n_rand = 0
    for py in rng.sample(small, 22):
        for rel, kw in iter_relation_instances(py, 3):
            if rel in first8 and _fits_budget(kw):
                assert relation_report(py, rel, **kw)["ok"], (py.p, py.signs, rel, kw)
                n_rand += 1

    # remaining families at minimal admissible levels; the flagship hosts
    # the three-row ones, the four-row pyramid the distant/super ones
    seen = {}
    for host in (gl36, PY4):
        for rel, kw in iter_relation_instances(host, 3):
            if rel in later8 and rel not in seen:
                seen[rel] = (host, kw)
    assert set(seen) == later8
    for rel, (host, kw) in seen.items():
        rep = relation_report(host, rel, **kw)
        assert rep["ok"], (rel, kw, rep)

    # the two suspect index readings stay surfaced
    rep = relation_report(gl36, "ff-adjacent", i=1, r=2, s=2)
    assert rep["ok"] and rep["variants"]["corrected_F_i1"]
    assert rep["variants"]["verbatim_F_i"] is False
    rep = relation_report(gl36, "ff-same", i=1, r=1, s=2)
    assert rep["variants"]["lower_index_i"] and rep["variants"]["lower_index_zero"]

    acceptance_details[4] = (
        f"{n_flag} flagship + {n_rand} random-pyramid instances, "
        f"{len(seen)} higher families at minimal levels"
    )


def test_criterion_05_weight_shift_identities(pyramids8, acceptance_details):
    """Shift weights agree with their root half-sum expressions."""
    for py in pyramids8:
        rt = rho_tilde(py)
        for b in py.boxes:
            val = py.h_shift - py.row_check(b) - sum(py.q_check[py.col(b) - 1 :])
            assert rt[b] == (-val if parity(b) else val)
        assert rt == eta(py) + rho_h(py)

        rp = RootPartition(py)
        upper = rp.col_zero & rp.row_plus
        assert beta(py) == signed_root_sum(rp.col_minus)
        assert rho_bar(py) == signed_root_sum(rp.col_plus | upper, HALF) - delta(py)
        assert rt == signed_root_sum(rp.col_minus | upper, HALF) - delta(py)
        assert rt == rho_bar(py) + beta(py)

        for a, b in vertical_adjacent_pairs(py):
            up, down = (a, b) if py.row(a) < py.row(b) else (b, a)
            if parity(up) == parity(down):
                assert rt[up] == rt[down] + 1
            else:
                assert rt[up] + rt[down] == -1
    acceptance_details[5] = "identities + adjacency on all 3000 pyramids"


# criterion 6 machinery ------------------------------------------------

C6_POOL = (-2, -1, 0, 1)
C6_CAP = 1000  # exhaustive both-routes tier up to this many row classes
C6_NEG_SAMPLES = 40
C6_SYM_PER_PY = 3


def _class_count(py):
    n = len(C6_POOL)
    out = 1
    for p in py.p:
        out *= comb(p + n - 1, n - 1)
    return out


def _rows_key(rows):
    return tuple(tuple(sorted(r)) for r in rows)


def test_criterion_06_classification_equivalence(gl36, pyramids8, acceptance_details):
    """A class admits a one-dimensional module iff it has a connected
    arrangement; checked by two independent routes over the fixed pool.

    Both verdicts are class functions, so quantification runs over row
    multisets.  Pyramids with at most C6_CAP classes are swept exhaustively
    through both routes; larger ones check every positive class both ways
    plus seeded negative samples.  A seeded selection of positives is
    confirmed by direct symbolic evaluation of the generator action.
    """
    rng = random.Random(0xC6)
    stats = {"exhaustive": 0, "classes": 0, "positives": 0, "neg": 0, "sym": 0}

    for py in list(pyramids8) + [gl36]:
        pos_keys = {_rows_key(t.rows()) for t in classify(py, C6_POOL)}

        if _class_count(py) <= C6_CAP and py is not gl36:
            stats["exhaustive"] += 1
            found = set()
            for rows in product(
                *(combinations_with_replacement(C6_POOL, p) for p in py.p)
            ):
                A = Tableau.from_rows(py, rows)
                wit = find_cc_representative(A)
                lam = weight_space_search(py, rows)
                assert (wit is None) == (lam is None), (py.p, py.signs, rows)
                stats["classes"] += 1
                if wit is not None:
                    found.add(_rows_key(rows))
            assert found == pos_keys, (py.p, py.signs)
        else:
            for key in pos_keys:
                A = Tableau.from_rows(py, key)
                assert find_cc_representative(A) is not None, (py.p, py.signs, key)
                assert weight_space_search(py, key) is not None, (py.p, py.signs, key)
            for _ in range(C6_NEG_SAMPLES):
                rows = tuple(
                    tuple(sorted(rng.choice(C6_POOL) for _ in range(p))) for p in py.p
                )
                if rows in pos_keys:
                    continue
                assert find_cc_representative(Tableau.from_rows(py, rows)) is None
                assert weight_space_search(py, rows) is None
                stats["neg"] += 1
        stats["positives"] += len(pos_keys)

        pos_list = sorted(pos_keys)
        if pos_list:
            chosen = (
                rng.sample(pos_list, C6_SYM_PER_PY)
                if len(pos_list) > C6_SYM_PER_PY
                else pos_list
            )
            for key in chosen:
                wit = find_cc_representative(Tableau.from_rows(py, key))
                assert wit is not None
                assert symbolic_module_check(wit), (py.p, key)
                if py is gl36:
                    assert next_level_vanishes(wit), key
                stats["sym"] += 1

    acceptance_details[6] = (
        f"{stats['exhaustive']} pyramids exhaustive ({stats['classes']} classes), "
        f"{stats['positives']} positives dual-checked, {stats['neg']} sampled "
        f"negatives, {stats['sym']} symbolic confirmations"
    )


# shared data for criteria 7 and 9 -------------------------------------


@pytest.fixture(scope="module")
def round_trip_data(gl36):
    rng = random.Random(0x5EED)
    out = []
    for py in list(enumerate_pyramids(6)) + [gl36]:
        batch = []
        for _ in range(100):
            A = random_cc(py, rng)
            batch.append((A, eigenvalues_of(A)))
        out.append((py, batch))
    return out


def test_criterion_07_factorization_round_trip(round_trip_data, acceptance_details):
    """Eigenvalue data determines the tableau up to row rearrangement."""
    n = 0
    for py, batch in round_trip_data:
        for A, data in batch:
            assert is_column_connected(A)
            B = tableau_from_eigenvalues(py, data)
            assert row_equivalent(A, B), (py.p, py.signs, A.rows())
            back = eigenvalues_of(B)
            assert back == data
            assert back.reduced == data.reduced
            n += 1
    acceptance_details[7] = f"{n} random tableaux over {len(round_trip_data)} pyramids"


def test_criterion_08_generator_action_values(gl36, worked_tableau, acceptance_details):
    """Direct evaluation of the generators reproduces the frozen tables."""
    py = gl36
    lam = lambda_A(worked_tableau) - rho_tilde(py)
    assert is_onedim_h_weight(py, lam)
    for i, row in enumerate(WORKED_FULL, start=1):
        for r, want in enumerate(row, start=1):
            got = evaluate_one_dim(py, D(py, i, r), lam)
            assert got == want, (i, r, got, want)
    # odd generators act by zero at their minimal levels
    for x in (E(py, 1, 2), E(py, 2, 1), F(py, 1, 1), F(py, 2, 2)):
        assert evaluate_one_dim(py, x, lam) == 0
    assert eigenvalues_of(worked_tableau).full == WORKED_FULL
    acceptance_details[8] = "a-tables (2,1) (3,3,1) (-1,-9,-11,-4) reproduced"


def test_criterion_09_quotient_relations(round_trip_data, acceptance_details):
    """Reduced data re-derives consistently; corrupted full data cannot."""
    rng = random.Random(0x9C9)
    checked = broken = 0
    for py, batch in round_trip_data:
        nonred_slots = [
            (i, k)
            for i in range(1, py.nrows)
            for k in range(py.p[i] - py.p[i - 1], py.p[i])
        ]
        for A, data in batch:
            assert quotient_relation_check(data)
            red = [list(r) for r in data.reduced]
            slots = [(i, k) for i, row in enumerate(red) for k in range(len(row))]
            i, k = rng.choice(slots)
            red[i][k] += 1
            again = EigenvalueData.from_reduced(py.signs, py.p, red)
            assert quotient_relation_check(again)
            checked += 1
            if nonred_slots:
                i, k = rng.choice(nonred_slots)
                full = [list(r) for r in data.full]
                full[i][k] += 1
                bad = EigenvalueData(py.signs, py.p, tuple(tuple(r) for r in full))
                assert not quotient_relation_check(bad), (py.p, py.signs, i, k)
                broken += 1
    acceptance_details[9] = (
        f"{checked} perturbed re-derivations pass, {broken} corrupted tables fail"
    )


def test_criterion_10_dimension_parity(gl36, pyramids8, acceptance_details):
    """Odd codimension is even everywhere; the flagship bound is exact."""
    for py in pyramids8:
        d0, d1 = centralizer_dims(e_pi(py), py.M, py.N)
        assert d1 % 2 == 0, (py.p, py.signs, d1)
    d0, d1 = centralizer_dims(e_pi(gl36), gl36.M, gl36.N)
    assert (d0, d1) == (32, 26)
    min_dim = 5 ** (d0 // 2) * 2 ** (d1 // 2)
    assert min_dim == 1_250_000_000_000_000
    acceptance_details[10] = "d1 even on all 3000; 5^16*2^13 = 1.25e15 exact"
