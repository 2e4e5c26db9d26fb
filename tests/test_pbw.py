"""Normal-form, projection, and one-dimensional evaluation oracles in U(g)."""

import itertools
import random
from fractions import Fraction

import pytest

from superw.gl import bracket, bracket_pair, e, minus, plus
from superw.pbw import (
    EnvelopingAlgebra,
    UEAElement,
    evaluate_one_dim,
    from_lie,
    generator,
    identity,
    is_W_invariant,
    pr_chi,
    scalar_element,
    supercommutator,
)
from superw.pyramid import all_pairs, enumerate_pyramids, from_shift
from superw.weights import Weight
from superw.yangian import algebra_for

P1, P2, P3 = plus(1), plus(2), plus(3)


def naive_normal_form(alg, words: dict) -> dict:
    """Straighten {word: coeff} by bubble sort, with no memo: the first
    adjacent descent x·y is rewritten to +/- y·x + [x,y] until every word
    is a normal monomial.  An adjacent odd square is dropped, as it is
    (1/2)[x,x] = 0 in gl(M|N).  Independent of EnvelopingAlgebra's
    straightening; it only reads the basis order, parities and index."""
    out: dict = {}
    todo = dict(words)
    while todo:
        word, c = todo.popitem()
        for k in range(len(word) - 1):
            x, y = word[k], word[k + 1]
            if x > y:
                head, tail = word[:k], word[k + 2:]
                swapped = -c if alg.parities[x] and alg.parities[y] else c
                rewrites = [(head + (y, x) + tail, swapped)]
                for pr, cz in bracket_pair(*alg.pairs[x], *alg.pairs[y]).terms.items():
                    rewrites.append((head + (alg.index[pr],) + tail, cz * c))
                for w, cw in rewrites:
                    todo[w] = todo.get(w, 0) + cw
                break
            if x == y and alg.parities[x]:
                break
        else:
            out[word] = out.get(word, 0) + c
    return {w: c for w, c in out.items() if c}


def naive_product(a, b) -> UEAElement:
    words: dict = {}
    for wa, ca in a.terms.items():
        for wb, cb in b.terms.items():
            words[wa + wb] = words.get(wa + wb, 0) + ca * cb
    return UEAElement(a.algebra, naive_normal_form(a.algebra, words))


def naive_supercommutator(a, b) -> UEAElement:
    """Definition on homogeneous a, b: ab - (-1)^{p(a)p(b)} ba."""
    sign = -1 if a.parity() and b.parity() else 1
    return naive_product(a, b) - sign * naive_product(b, a)


def random_element(alg, rng, nterms=3, max_degree=3, parity=None) -> UEAElement:
    """Sum of random normal monomials of degree <= max_degree with int and
    Fraction coefficients; of one parity when parity is given."""
    terms: dict = {}
    while len(terms) < nterms:
        degree = rng.randint(0, max_degree)
        mono = tuple(sorted(rng.randrange(len(alg.pairs)) for _ in range(degree)))
        odd = [i for i in mono if alg.parities[i]]
        if len(odd) != len(set(odd)):
            continue  # odd squares vanish: not a normal monomial
        if parity is not None and alg.mono_parity(mono) != parity:
            continue
        terms[mono] = rng.choice([1, -1, 2, -3, Fraction(1, 2), Fraction(-2, 3)])
    return UEAElement(alg, terms)


def is_normal(alg, mono) -> bool:
    """Weakly increasing, with no odd index repeated."""
    return all(x < y or (x == y and not alg.parities[x]) for x, y in zip(mono, mono[1:]))


def supercommutes(alg, x, y) -> bool:
    """[x, y] = 0 by the bracket table of gl(M|N)."""
    return bracket_pair(*alg.pairs[x], *alg.pairs[y]).is_zero()


def test_scalar_and_identity(gl36, alg36):
    one = identity(alg36)
    assert one.terms.get((), 0) == 1
    assert (3 * one).terms.get((), 0) == 3
    assert scalar_element(alg36, 0).is_zero()
    assert one * one == one


def test_supercommutator_matches_bracket_on_generators(gl36, alg36):
    rng = random.Random(7)
    pairs = all_pairs(gl36)
    for _ in range(60):
        a = rng.choice(pairs)
        b = rng.choice(pairs)
        lhs = supercommutator(generator(alg36, *a), generator(alg36, *b))
        assert lhs == from_lie(alg36, bracket(e(*a), e(*b))), (a, b)


def test_odd_generator_squares_to_zero(gl36, alg36):
    x = generator(alg36, P1, minus(2))
    assert (x * x).is_zero()


def test_product_associativity_sampled(gl36, alg36):
    rng = random.Random(11)
    pairs = all_pairs(gl36)
    for _ in range(40):
        x, y, z = (generator(alg36, *rng.choice(pairs)) for _ in range(3))
        assert (x * y) * z == x * (y * z)


def test_naive_straightener_reproduces_brackets(gl36, alg36):
    rng = random.Random(5)
    pairs = all_pairs(gl36)
    for _ in range(30):
        a, b = rng.choice(pairs), rng.choice(pairs)
        lhs = naive_supercommutator(generator(alg36, *a), generator(alg36, *b))
        assert lhs == from_lie(alg36, bracket(e(*a), e(*b))), (a, b)


@pytest.mark.parametrize("host", ["gl36", "py4"])
def test_product_matches_naive_straightener(host, request):
    py = request.getfixturevalue(host)
    alg = algebra_for(py)
    rng = random.Random(23)
    for _ in range(25):
        a = random_element(alg, rng, nterms=rng.randint(1, 4))
        b = random_element(alg, rng, nterms=rng.randint(1, 4))
        assert a * b == naive_product(a, b), (a, b)
    # mixed parity is exercised, not just homogeneous elements
    mixed = [random_element(alg, rng, nterms=4) for _ in range(20)]
    assert any(u.parity() is None for u in mixed)


@pytest.mark.parametrize("host", ["gl36", "py4"])
def test_product_memo_holds_only_straightened_words(host, request):
    py = request.getfixturevalue(host)
    alg = algebra_for(py)
    rng = random.Random(47)
    for _ in range(25):
        random_element(alg, rng, nterms=3) * random_element(alg, rng, nterms=3)
    assert alg._gen_memo
    for word, value in alg._gen_memo.items():
        # a word is memoized only when its generator sits above the monomial
        assert len(word) >= 2 and word[0] > word[1], word
        assert is_normal(alg, word[1:]), word
        # ... and fails to supercommute with some factor it must move past:
        # a commuting-prefix word is a signed insertion, never memoized
        x = word[0]
        assert any(not supercommutes(alg, x, y) for y in word[1:] if y < x), word
        assert isinstance(value, tuple), word
        for mono, c in value:
            assert is_normal(alg, mono), (word, mono)
            assert isinstance(c, (int, Fraction)) and c != 0, (word, c)


def test_commutes_mask_matches_bracket_table(gl36, py4):
    hosts = [gl36, py4, *enumerate_pyramids(4)]
    assert len(hosts) > 10
    for py in hosts:
        alg = EnvelopingAlgebra(py)
        n = len(alg.pairs)
        assert len(alg.commutes) == n
        for x in range(n):
            mask = alg.commutes[x]
            assert mask >> n == 0, (py, x)
            for y in range(n):
                if mask >> y & 1:
                    assert alg._bracket_idx(x, y) == (), (py, x, y)
                elif x != y:
                    assert alg._bracket_idx(x, y) != (), (py, x, y)


def test_commuting_prefix_signs(gl36):
    """Fast-path words x·mono whose x supercommutes with every factor below
    it: straightened against the naive rewriter on a cold algebra, which
    memoizes none of them."""
    alg = EnvelopingAlgebra(gl36)
    n = len(alg.pairs)

    def below(x, odd):
        return [y for y in range(x) if alg.parities[y] == odd and supercommutes(alg, x, y)]

    def product(x, mono):
        got = generator(alg, *alg.pairs[x]) * UEAElement(alg, {mono: 1})
        assert got == naive_product(generator(alg, *alg.pairs[x]), UEAElement(alg, {mono: 1}))
        return got.terms

    # odd x past three odd and one even commuting factor: coefficient -1
    x = next(x for x in range(n) if alg.parities[x] and len(below(x, 1)) >= 3 and below(x, 0))
    mono = tuple(sorted(below(x, 1)[:3] + below(x, 0)[:1]))
    assert product(x, mono) == {tuple(sorted(mono + (x,))): -1}
    # odd x past one odd commuting factor onto its own copy: 0
    y = below(x, 1)[0]
    assert product(x, (y, x)) == {}
    # even x past a commuting factor onto its own copy: the exponent rises
    x = next(x for x in range(n) if not alg.parities[x] and below(x, 1))
    y = below(x, 1)[0]
    assert product(x, (y, x)) == {(y, x, x): 1}
    assert not alg._gen_memo


@pytest.mark.parametrize("host", ["gl36", "py4"])
def test_cold_and_warm_memo_agree(host, request):
    py = request.getfixturevalue(host)
    warm = algebra_for(py)
    cold = EnvelopingAlgebra(py)
    assert cold.pairs == warm.pairs and not cold._gen_memo
    rng = random.Random(53)
    cases = [
        tuple(random_element(warm, rng, nterms=rng.randint(1, 4)) for _ in range(2))
        for _ in range(15)
    ]
    for a, b in cases:
        a * b  # memoizes every word these products straighten
    for a, b in cases:
        expected = naive_product(a, b).terms
        assert (a * b).terms == expected, (a, b)
        assert (UEAElement(cold, a.terms) * UEAElement(cold, b.terms)).terms == expected, (a, b)


@pytest.mark.parametrize("host", ["gl36", "py4"])
def test_product_associativity_on_elements(host, request):
    py = request.getfixturevalue(host)
    alg = algebra_for(py)
    rng = random.Random(29)
    for _ in range(10):
        x, y, z = (random_element(alg, rng, nterms=3, max_degree=2) for _ in range(3))
        assert (x * y) * z == x * (y * z)


def test_supercommutator_matches_definition(gl36, py4):
    for py in (gl36, py4):
        alg = algebra_for(py)
        rng = random.Random(31)
        for _ in range(15):
            pa, pb = rng.randint(0, 1), rng.randint(0, 1)
            a = random_element(alg, rng, parity=pa)
            b = random_element(alg, rng, parity=pb)
            assert supercommutator(a, b) == naive_supercommutator(a, b), (a, b)


def test_supercommutator_expands_over_parity_parts(gl36, alg36):
    rng = random.Random(37)
    for _ in range(15):
        a0, a1 = (random_element(alg36, rng, parity=p) for p in (0, 1))
        b0, b1 = (random_element(alg36, rng, parity=p) for p in (0, 1))
        a, b = a0 + a1, b0 + b1
        expected = sum(
            (naive_supercommutator(ai, bj) for ai in (a0, a1) for bj in (b0, b1)),
            scalar_element(alg36, 0),
        )
        assert supercommutator(a, b) == expected


def test_supercommutator_super_antisymmetry(gl36, alg36):
    rng = random.Random(41)
    for _ in range(20):
        pa, pb = rng.randint(0, 1), rng.randint(0, 1)
        a = random_element(alg36, rng, parity=pa)
        b = random_element(alg36, rng, parity=pb)
        sign = -1 if pa and pb else 1
        assert supercommutator(a, b) == -sign * supercommutator(b, a)


def test_supercommutator_super_jacobi_sampled(gl36, alg36):
    # [a, [b, c]] = [[a, b], c] + (-1)^{p(a)p(b)} [b, [a, c]]
    rng = random.Random(43)
    for _ in range(10):
        pa, pb, pc = (rng.randint(0, 1) for _ in range(3))
        a, b, c = (
            random_element(alg36, rng, nterms=2, max_degree=2, parity=p) for p in (pa, pb, pc)
        )
        sign = -1 if pa and pb else 1
        lhs = supercommutator(a, supercommutator(b, c))
        rhs = supercommutator(supercommutator(a, b), c) + sign * supercommutator(
            b, supercommutator(a, c)
        )
        assert lhs == rhs, (a, b, c)


def test_pbw_straightening_reorders_h_pair(gl36, alg36):
    # e_{2,1} e_{1,1} = e_{1,1} e_{2,1} + e_{2,1} in U(g)
    a = from_lie(alg36, e(P2, P1))
    d = from_lie(alg36, e(P1, P1))
    prod = a * d
    assert prod == d * a + a


def test_parity_of_monomials(gl36, alg36):
    ev = from_lie(alg36, e(P1, P2))
    od = from_lie(alg36, e(P1, minus(2)))
    assert ev.parity() == 0
    assert od.parity() == 1
    assert (ev * od).parity() == 1
    assert (od + ev).parity() is None
    assert scalar_element(alg36, 0).parity() == 0


def test_in_U_p(gl36, alg36):
    assert from_lie(alg36, e(P1, P2)).in_U_p()
    assert from_lie(alg36, e(P1, P1)).in_U_p()
    assert not from_lie(alg36, e(P2, P1)).in_U_p()
    assert (from_lie(alg36, e(P1, P2)) * from_lie(alg36, e(P2, P3))).in_U_p()


def test_pr_chi_linear_values(gl36, alg36):
    # chi pairs each m-generator against the adjacency sum
    assert pr_chi(gl36, from_lie(alg36, e(P2, P1))) == identity(alg36)
    assert pr_chi(gl36, from_lie(alg36, e(minus(4), minus(2)))) == -identity(alg36)
    assert pr_chi(gl36, from_lie(alg36, e(P3, P1))).is_zero()


def test_pr_chi_strips_trailing_m_factor(gl36, alg36):
    # the projection works along the left ideal: u·a = chi(a)·u, so the
    # quadratic monomial keeps its straightening byproduct
    a = from_lie(alg36, e(P2, P1))
    d = from_lie(alg36, e(P1, P1))
    assert pr_chi(gl36, a * d) == d + identity(alg36)
    assert pr_chi(gl36, d * a) == d


def test_pr_chi_is_U_p_identity(gl36, alg36):
    u = from_lie(alg36, e(P1, P2)) * from_lie(alg36, e(P1, P1)) + 5 * identity(alg36)
    assert pr_chi(gl36, u) == u


def test_twisted_action_values(gl36, alg36):
    # the chi-twisted action of a in m on y in U(p) is pr_chi([a, y])
    a = from_lie(alg36, e(P2, P1))
    d = from_lie(alg36, e(P1, P1))
    assert pr_chi(gl36, supercommutator(a, d)) == identity(alg36)
    assert pr_chi(gl36, supercommutator(a, from_lie(alg36, e(P2, P2)))) == -identity(alg36)


def test_is_W_invariant_controls(gl36, alg36):
    # the full plus-row trace is invariant; a single diagonal box is not
    row2 = sum((from_lie(alg36, e(b, b)) for b in (P1, P2, P3)), scalar_element(alg36, 0))
    assert is_W_invariant(gl36, row2)
    assert not is_W_invariant(gl36, from_lie(alg36, e(P1, P1)))
    assert is_W_invariant(gl36, identity(alg36))


def test_even_square_is_one_normal_monomial(alg36):
    d = from_lie(alg36, e(P1, P1))
    k = alg36.index[(P1, P1)]
    assert 3 * (d * d) == UEAElement(alg36, {(k, k): 3})


def test_value_types_are_unhashable(alg36, worked_tableau):
    # equality compares contents; none of these is used as a dict key or set member
    for x in (e(P1, P2), Weight({P1: 1}), worked_tableau, from_lie(alg36, e(P1, P1))):
        with pytest.raises(TypeError):
            hash(x)


def test_evaluate_one_dim(gl36, alg36):
    lam = {b: Fraction(0) for b in gl36.boxes}
    lam[P1] = Fraction(2)
    lam[P2] = Fraction(-1, 2)
    d1 = from_lie(alg36, e(P1, P1))
    d2 = from_lie(alg36, e(P2, P2))
    assert evaluate_one_dim(gl36, d1, lam) == 2
    assert evaluate_one_dim(gl36, d1 * d2 + 3 * identity(alg36), lam) == Fraction(-1) + 3
    # off-diagonal h factors kill a monomial
    assert evaluate_one_dim(gl36, from_lie(alg36, e(P1, P2)), lam) == 0
    with pytest.raises(ValueError):
        evaluate_one_dim(gl36, from_lie(alg36, e(P2, P1)), lam)  # not in U(p)


def test_small_pyramid_everything_is_h():
    py = from_shift([[0, 0], [0, 0]], 1, "01")
    alg = algebra_for(py)
    for pr in all_pairs(py):
        assert py.degree(pr) == 0
        assert generator(alg, *pr).in_U_p()
    # chi vanishes: pr_chi is the identity and every element is invariant
    u = generator(alg, *all_pairs(py)[0])
    assert pr_chi(py, u) == u
    assert is_W_invariant(py, u + 2 * identity(alg))
