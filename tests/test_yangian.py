"""Generator formulas, relation verification, and truncation on gl(3|6)."""

import gc
import hashlib
import json
import random
import weakref
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from superw.gl import e, minus, parity, plus
from superw.onedim import symbolic_module_check
from superw.pbw import (
    from_lie,
    generator,
    identity,
    is_W_invariant,
    scalar_element,
    supercommutator,
)
from superw.pyramid import Pyramid, enumerate_pyramids, from_shift
from superw.weights import eta
from superw.yangian import (
    D,
    E,
    F,
    RELATION_IDS,
    T,
    algebra_for,
    d_prime_series,
    generator_parity,
    higher_E,
    higher_F,
    iter_relation_instances,
    relation_report,
    series_quotient,
    truncation_vanishing,
)

from helpers import random_cc


def _diag(alg, *boxes):
    return sum((from_lie(alg, e(b, b)) for b in boxes), scalar_element(alg, 0))


def oracle_T(py, i, j, x, r):
    """T_{i,j;x}^{(r)} as a sum of products of generator and scalar_element
    elements, one product per sequence of pairs (a_1, b_1), ..., (a_m, b_m):
    a_1 in row i, b_m in row j, row(a_{k+1}) = row(b_k), col(a_k) <=
    col(b_k), and the costs col(b_k) - col(a_k) + 1 add up to r.  The next
    pair starts in a column <= col(b_k) with link sign -1 when row(b_k) <= x,
    and in a column > col(b_k) with sign +1 otherwise.  Each pair (a, b)
    contributes (-1)^{p(a)} (-1)^{col(b)-col(a)} (e_{a,b} + eta(e_{a,b}))."""
    alg = algebra_for(py)
    eta_py = eta(py)

    def factor(a, b):
        sign = (-1) ** parity(a) * (-1) ** (py.col(b) - py.col(a))
        el = generator(alg, a, b, sign)
        if a == b:
            el = el + scalar_element(alg, sign * eta_py[a])
        return el

    def sequences(row, lo, hi, rem):
        """(link sign, pairs) of every completion from `row`."""
        for a in py.row_boxes[row - 1]:
            for b in py.boxes:
                cost = py.col(b) - py.col(a) + 1
                if not lo <= py.col(a) <= hi or not 1 <= cost <= rem:
                    continue
                if cost == rem:
                    if py.row(b) == j:
                        yield 1, [(a, b)]
                    continue
                if py.row(b) <= x:
                    link, nlo, nhi = -1, 1, py.col(b)
                else:
                    link, nlo, nhi = 1, py.col(b) + 1, py.ell
                for sign, rest in sequences(py.row(b), nlo, nhi, rem - cost):
                    yield link * sign, [(a, b)] + rest

    total = scalar_element(alg, 0)
    for sign, pairs in sequences(i, 1, py.ell, r):
        term = identity(alg)
        for a, b in pairs:
            term = term * factor(a, b)
        total = total + sign * term
    return total


def test_T_matches_product_oracle(gl36, py4):
    hosts = [*enumerate_pyramids(4), gl36, py4]
    nonzero = 0
    for py in hosts:
        for i in range(1, py.nrows + 1):
            for j in range(1, py.nrows + 1):
                for x in range(py.nrows + 1):
                    for r in (1, 2, 3):
                        got = T(py, i, j, x, r)
                        assert got.terms == oracle_T(py, i, j, x, r).terms, (py, i, j, x, r)
                        nonzero += bool(got.terms)
    assert len(hosts) > 10 and nonzero > 100


def test_level_one_D_values(gl36, alg36):
    # hand expansion: D_i^{(1)} = sum over row-i boxes of (-1)^{tp}(e_bb + eta(b))
    assert D(gl36, 1, 1) == identity(alg36) - _diag(alg36, minus(2), minus(4))
    assert D(gl36, 2, 1) == _diag(alg36, plus(1), plus(2), plus(3))
    assert D(gl36, 3, 1) == 2 * identity(alg36) - _diag(
        alg36, minus(1), minus(3), minus(5), minus(6)
    )
    assert D(gl36, 1, 0) == identity(alg36)


def test_level_one_F_value(gl36, alg36):
    expect = from_lie(alg36, e(plus(1), minus(2))) + from_lie(alg36, e(plus(2), minus(4)))
    assert F(gl36, 1, 1) == expect


def test_admissibility_gates(gl36):
    # E_1 needs r > s_{1,2} = 1 and F_2 needs r > s_{3,2} = 1
    with pytest.raises(ValueError):
        E(gl36, 1, 1)
    with pytest.raises(ValueError):
        F(gl36, 2, 1)
    assert E(gl36, 1, 2).parity() == 1
    assert F(gl36, 2, 2).parity() == 1
    assert E(gl36, 2, 1).parity() == 1


def test_generator_parity(gl36):
    assert generator_parity(gl36, 1) == 1
    assert generator_parity(gl36, 2) == 1


def test_generators_land_in_U_p(gl36):
    for i in (1, 2, 3):
        for r in (1, 2, 3):
            assert D(gl36, i, r).in_U_p()
    assert E(gl36, 1, 2).in_U_p()
    assert F(gl36, 1, 1).in_U_p()


def test_d_prime_series_scalars():
    assert d_prime_series([2, 1]) == [1, -2, 3]
    assert d_prime_series([2, 1])[-1] == 3
    assert d_prime_series([]) == [1]


@pytest.mark.parametrize("seed", range(6))
def test_d_prime_series_inverts_padded_series(seed):
    # a row padded with zeros past its length, as the eigenvalue solver
    # and the quotient-relation check pass it
    rng = random.Random(seed)
    for scalar in (int, lambda v: Fraction(v, rng.randint(1, 9))):
        coeffs = [scalar(rng.randint(-9, 9)) for _ in range(rng.randint(0, 4))]
        order = len(coeffs) + rng.randint(1, 4)
        c = [1] + coeffs + [0] * (order - len(coeffs))
        inv = d_prime_series(c[1:])
        assert len(inv) == order + 1 and inv[0] == 1
        for r in range(1, order + 1):
            assert sum(c[t] * inv[r - t] for t in range(r + 1)) == 0
    # closed form: (1 + a u^{-1})^{-1} = sum_k (-a)^k u^{-k}
    a = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
    assert d_prime_series([a, 0, 0, 0]) == [(-a) ** k for k in range(5)]


_fractions = st.fractions(max_denominator=12, min_value=-20, max_value=20)


@given(st.lists(_fractions, max_size=6), st.lists(_fractions, max_size=5), st.integers(0, 9))
@settings(max_examples=120)
def test_series_quotient_times_denominator_is_numerator(num, den_tail, n):
    # q·den ≡ num mod u^{-(n+1)}, with coefficients past either list 0
    den = [1] + den_tail
    q = series_quotient(num, den, n)
    assert len(q) == n + 1
    pad = lambda c, r: c[r] if r < len(c) else 0
    for r in range(n + 1):
        assert sum(pad(den, t) * q[r - t] for t in range(r + 1)) == pad(num, r)


def test_d_prime_inverts_generators(gl36, alg36):
    series = [D(gl36, 2, r) for r in (1, 2, 3)]
    dp = d_prime_series(series)
    # the defining convolution: sum_t D^{(t)} D'^{(r-t)} = 0 for r >= 1
    for r in (1, 2, 3):
        acc = scalar_element(alg36, 0)
        for t in range(0, r + 1):
            left = identity(alg36) if t == 0 else series[t - 1]
            acc = acc + left * dp[r - t]
        assert acc.is_zero()


def test_d_prime_series_inverts_noncommuting_series(gl36, alg36):
    # D' comes from a left-sided convolution, yet it is a two-sided inverse
    # for any series with constant term 1, commuting or not: the d-inverse
    # family checks product arithmetic, not the generators
    x, y, z = (generator(alg36, plus(a), plus(b)) for a, b in ((1, 2), (2, 1), (2, 3)))
    assert x * y != y * x and x * z != z * x
    one = identity(alg36)
    series = [one, x, y, z]
    dp = d_prime_series(series[1:])
    for r in range(4):
        delta = one if r == 0 else scalar_element(alg36, 0)
        assert sum((series[t] * dp[r - t] for t in range(r + 1)), scalar_element(alg36, 0)) == delta
        assert sum((dp[r - t] * series[t] for t in range(r + 1)), scalar_element(alg36, 0)) == delta


def test_relation_ids_registry():
    assert len(RELATION_IDS) == 16
    assert len(set(RELATION_IDS)) == 16
    assert RELATION_IDS[0] == "d-unit"
    assert "ff-super-serre" in RELATION_IDS


def test_relation_report_normalizes_names(gl36):
    assert relation_report(gl36, "dd-comm", i=1, j=2, r=1, s=1)["ok"]
    assert relation_report(gl36, " dd-comm ", i=1, j=2, r=1, s=1)["ok"]
    # only surrounding whitespace is trimmed: parentheses are not
    for rel in ("no-such-relation", "(de)", "((de", "(dd-comm)"):
        with pytest.raises(ValueError, match="unknown relation id"):
            relation_report(gl36, rel, i=1, r=1)


def test_relation_report_shape(gl36):
    rep = relation_report(gl36, "ef", i=1, j=1, r=2, s=2)
    assert rep["rel"] == "ef"
    assert rep["ok"] is True
    assert rep["indices"] == {"i": 1, "j": 1, "r": 2, "s": 2}


def test_relation_report_checks_index_names(gl36):
    # a missing index and an unused one both name the family's indices
    with pytest.raises(ValueError, match="relation de takes indices i, j, r, s; got i, r, s"):
        relation_report(gl36, "de", i=1, r=1, s=2)
    with pytest.raises(ValueError, match="takes indices i, j, r, s; got i, j, r, s, t"):
        relation_report(gl36, "dd-comm", i=1, j=2, r=1, s=1, t=9)
    with pytest.raises(ValueError, match="takes indices i; got none"):
        relation_report(gl36, "d-unit")


def _sha256(obj):
    return hashlib.sha256(json.dumps(obj).encode()).hexdigest()


# sha256 of the instance stream at levels 2, 3, 4, and of the level-2 reports
_GOLDEN = {
    "gl36": (
        (
            "b868eba2bb666ea7850544fd8571baf52d0be8cde13230e082022bb9c551085c",
            "08efa8a32e388ed42eded8ad21629b451e704bbf2a6c978fa5a192352f7ebaf0",
            "40c1c0eeae56eefbec6d8012446f1a404ed2630c33cab1a495a2af4c7970fca1",
        ),
        "68637324e75ecef2ad7b995c360b9cd8f93900c6bf3676edfd38579612bb156d",
    ),
    "py4": (
        (
            "304f2584e642de2a094c3d880cc70862804d491259a3d07e7fa1fdead8996c24",
            "0e83499e026beaa6cec92e00e753c1a2cb2eeda3dfdc32e3ff06c9a5df0355ae",
            "e4a5e4fde92302a08e367ca19c5198a4081917e5b86d95ba2164b581e08055e7",
        ),
        "831d9dac2298c1fd9f6bae8c5008d3173926308ed822ca3272d59c6c8b664ee8",
    ),
}


def test_instance_order_and_level_two_reports_are_pinned(gl36, py4):
    for name, py in (("gl36", gl36), ("py4", py4)):
        streams, reports = _GOLDEN[name]
        for level, digest in zip((2, 3, 4), streams):
            assert _sha256(list(iter_relation_instances(py, level))) == digest, (name, level)
        got = [relation_report(py, rel, **kw) for rel, kw in iter_relation_instances(py, 2)]
        assert _sha256(got) == reports, name


def test_ff_adjacent_variants_surfaced(gl36):
    rep = relation_report(gl36, "ff-adjacent", i=1, r=2, s=2)
    assert rep["ok"] is True
    assert rep["variants"]["corrected_F_i1"] is True
    assert rep["variants"]["verbatim_F_i"] is False


def test_ff_same_variants_agree_here(gl36):
    rep = relation_report(gl36, "ff-same", i=1, r=1, s=2)
    assert rep["ok"] is True
    assert rep["variants"]["lower_index_i"] is True
    assert rep["variants"]["lower_index_zero"] is True


def test_level_two_sweep(gl36):
    count = 0
    for rel, kw in iter_relation_instances(gl36, 2):
        rep = relation_report(gl36, rel, **kw)
        assert rep["ok"], (rel, kw, rep)
        count += 1
    assert count > 50


def test_distant_relations_need_four_rows(gl36):
    with pytest.raises(ValueError):
        relation_report(gl36, "ee-distant", i=1, j=2, r=1, s=1)
    py4 = from_shift(
        [[0, 0, 1, 2], [0, 0, 1, 2], [0, 0, 0, 1], [1, 1, 1, 0]], 4, "0101"
    )
    assert relation_report(py4, "ee-distant", i=1, j=3, r=1, s=2)["ok"]
    assert relation_report(py4, "ff-distant", i=1, j=3, r=1, s=2)["ok"]
    # the four-row pyramid also hosts the odd serre variants at i = 2
    assert relation_report(py4, "ee-super-serre", i=2, r=1, s=2)["ok"]
    assert relation_report(py4, "ff-super-serre", i=2, r=1, s=2)["ok"]


def test_truncation(gl36, alg36):
    assert truncation_vanishing(gl36, 3)
    with pytest.raises(ValueError):
        truncation_vanishing(gl36, 2)  # below the top-row length bound
    assert not T(gl36, 1, 1, 0, 2).is_zero()
    assert T(gl36, 1, 1, 0, 3).is_zero()


def test_serre_equal_levels_single_summand_vanishes(py4):
    # with r == s the verifier forms [X_i^r, [X_i^r, X_j^t]] once: the two
    # summands of the Serre identity are the same element
    count = 0
    for rel, kw in iter_relation_instances(py4, 3):
        if rel not in ("ee-serre", "ff-serre") or kw["r"] != kw["s"]:
            continue
        make = E if rel == "ee-serre" else F
        x = make(py4, kw["i"], kw["r"])
        assert supercommutator(x, supercommutator(x, make(py4, kw["j"], kw["t"]))).is_zero(), kw
        assert relation_report(py4, rel, **kw)["ok"] is True, kw
        count += 1
    assert count > 0


@pytest.fixture()
def no_cycle_collector():
    """Run the test with the cycle collector off, so that only refcounting
    can free what it drops."""
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if was_enabled:
            gc.enable()


def test_state_dies_with_pyramid_and_elements(gl36, no_cycle_collector):
    py = Pyramid.from_json(gl36.to_json())
    els = [D(py, i, r) for i in (1, 2, 3) for r in (1, 2, 3)]
    els.append(supercommutator(E(py, 1, 2), F(py, 1, 2)))
    alg = weakref.ref(algebra_for(py))
    assert py.w_state.alg is alg() and py.w_state.t_suffix
    assert alg()._gen_memo
    del py
    assert alg() is not None  # the elements still use it
    del els
    assert alg() is None


def test_module_check_sweep_leaves_no_algebra_alive(no_cycle_collector):
    rng = random.Random(61)
    algs = []
    for py in enumerate_pyramids(5):
        A = random_cc(py, rng)
        assert symbolic_module_check(A), py
        algs.append(weakref.ref(algebra_for(py)))
    del py, A
    assert len(algs) > 200
    assert [ref for ref in algs if ref() is not None] == []


def test_equal_pyramids_own_distinct_algebras(gl36, no_cycle_collector):
    twin = Pyramid.from_json(gl36.to_json())
    assert twin == gl36 and twin is not gl36
    alg = weakref.ref(algebra_for(twin))
    assert alg() is not algebra_for(gl36)
    mine, theirs = D(twin, 2, 2), D(gl36, 2, 2)
    assert mine.algebra is alg() and mine.terms == theirs.terms
    for mix in (lambda: mine + theirs, lambda: mine * theirs, lambda: supercommutator(mine, theirs)):
        with pytest.raises(ValueError, match="different algebras"):
            mix()
    # the pyramid check compares equality, so the twin still accepts them
    assert is_W_invariant(twin, D(gl36, 3, 2))
    del twin, mine, mix
    assert alg() is None
    assert D(gl36, 1, 1).algebra is algebra_for(gl36)


def test_invariance_rejects_element_of_another_pyramid(gl36, py4):
    y = D(gl36, 3, 2)
    # a single box has an empty m, so no commutator would reach the check
    single = from_shift([[0]], 1, "0")
    for py in (single, py4):
        with pytest.raises(ValueError, match="different pyramid"):
            is_W_invariant(py, y)


def test_higher_root_elements(gl36):
    x = higher_E(gl36, 1, 3, 2)
    assert x.in_U_p()
    assert is_W_invariant(gl36, x)
    y = higher_F(gl36, 3, 1, 2)
    assert y.in_U_p()
    assert is_W_invariant(gl36, y)


def test_distant_T_is_not_invariant_for_every_x():
    # p = (1, 1, 1, 2): the T docstring's example of a T_{i,j;x} with
    # |i - j| >= 2 that lies in U(p) but is not a W-element
    py = from_shift([[0, 0, 0, 1], [0, 0, 0, 1], [0, 0, 0, 1], [0, 0, 0, 0]], 2, "0000")
    assert py.p == (1, 1, 1, 2)
    bad, good = T(py, 1, 4, 1, 2), T(py, 1, 4, 3, 2)
    assert bad.in_U_p() and good.in_U_p()
    assert not is_W_invariant(py, bad)
    assert is_W_invariant(py, good)
    # while the root elements of the same pair are W-elements
    assert is_W_invariant(py, higher_E(py, 1, 4, 2))
    assert is_W_invariant(py, higher_F(py, 4, 1, 1))
