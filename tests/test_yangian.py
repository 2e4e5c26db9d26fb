"""Generator formulas, relation verification, and truncation on gl(3|6)."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from superw import yangian
from superw.gl import e, minus, plus
from superw.pbw import from_lie, identity, is_W_invariant, scalar_element, supercommutator
from superw.pyramid import Pyramid, from_shift
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


def _diag(alg, *boxes):
    return sum((from_lie(alg, e(b, b)) for b in boxes), scalar_element(alg, 0))


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


def test_relation_ids_registry():
    assert len(RELATION_IDS) == 16
    assert len(set(RELATION_IDS)) == 16
    assert RELATION_IDS[0] == "d-unit"
    assert "ff-super-serre" in RELATION_IDS


def test_relation_report_normalizes_names(gl36):
    assert relation_report(gl36, "dd-comm", i=1, j=2, r=1, s=1)["ok"]
    assert relation_report(gl36, " (dd-comm) ", i=1, j=2, r=1, s=1)["ok"]
    with pytest.raises(ValueError):
        relation_report(gl36, "no-such-relation", i=1, r=1)


def test_relation_report_shape(gl36):
    rep = relation_report(gl36, "ef", i=1, j=1, r=2, s=2)
    assert rep["rel"] == "ef"
    assert rep["ok"] is True
    assert rep["indices"] == {"i": 1, "j": 1, "r": 2, "s": 2}


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


def test_clear_drops_per_pyramid_state(gl36, monkeypatch):
    monkeypatch.setattr(yangian, "_contexts", {})
    old_alg = algebra_for(gl36)
    old = {(i, r): D(gl36, i, r) for i in (1, 2, 3) for r in (1, 2, 3)}
    yangian.clear()
    assert not yangian._contexts
    new_alg = algebra_for(gl36)
    assert new_alg is not old_alg
    for (i, r), el in old.items():
        assert D(gl36, i, r).terms == el.terms
    stale, fresh = old[(2, 2)], D(gl36, 2, 2)
    for mix in (lambda: stale + fresh, lambda: stale * fresh, lambda: supercommutator(stale, fresh)):
        with pytest.raises(ValueError, match="different algebras"):
            mix()


def test_one_algebra_per_pyramid(gl36):
    twin = Pyramid.from_json(gl36.to_json())
    assert twin is not gl36
    assert algebra_for(twin) is algebra_for(gl36)
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
