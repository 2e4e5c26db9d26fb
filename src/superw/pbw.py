"""U(gl(M|N)) as a PBW term-rewriting engine, adapted to a pyramid.

The algebra orders its own PBW basis by one stable sort of all pairs
(i, j) with the key (d < 0, d, i != j), d the degree of e_ij: U(p) first,
by degree from 0 up with the diagonal pairs leading degree 0, then the
m-pairs (negative degree) from the lowest degree up.  With the m-pairs
trailing, the projection onto U(p) along the left ideal generated by
{a - chi(a) : a in m} acts monomial by monomial: u·a is
congruent to chi(a)·u, so the trailing m-factors of a normal monomial
are replaced by their chi values.  (Putting m first would instead realize
the projection along the right ideal, under which the explicit generators
fail to be invariant.)

Monomials are stored as weakly increasing tuples of basis-pair indices;
odd indices never repeat (odd squares vanish).  Straightening is the
rewrite x·y -> +/- y·x + [x,y].  A generator x times a normal monomial
is a commuting-prefix word when x supercommutes with every factor below
it: by [e_ij, e_kl] = delta_jk e_il -/+ delta_li e_kj every bracket on the
way is 0, so the normal form is x inserted with a sign (or 0 when odd x
meets itself).  Already-normal words are the case with no factor below x.
Only the other words are straightened recursively, and their normal form
is memoized in the only product memo the engine keeps: one dict per
generator x, made on x's first miss and keyed by the monomial itself, whose
values are flat immutable tuples (m1, c1, m2, c2, ...) of the normal form.
A commuting-prefix word costs one walk over its prefix, so memoizing it
would only spend memory: on the flagship at level 3 such words would make
up 71% of the memo.
A product a·b of elements is evaluated by Horner's scheme over the last
factors of a: with a = sum_x a_x·x, each x·b is straightened once and
a_x·(x·b) is formed recursively, merging terms after every step.  All
bracket structure constants are integers, so coefficients stay in int
until user scalars introduce Fractions.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping
from fractions import Fraction
from itertools import chain, groupby

from .gl import (
    BoxIndex,
    LieSuperElement,
    Pair,
    bracket_pair,
    pair_parity,
    superform,
)
from .gl import e as lie_e
from .pyramid import Pyramid, all_pairs, e_pi
from .scalars import Scalar


def _add_scaled(acc: dict, terms: Iterable[tuple[tuple, Scalar]], c: Scalar) -> None:
    """acc += c·terms in place for (monomial, coefficient) pairs, dropping
    coefficients that cancel to 0."""
    for mono, cm in terms:
        v = acc.get(mono, 0) + c * cm
        if v:
            acc[mono] = v
        elif mono in acc:
            del acc[mono]


class EnvelopingAlgebra:
    """Multiplication engine for U(gl(M|N)) in the PBW order of a pyramid."""

    def __init__(self, py: Pyramid):
        # py's equality key, not py: py owns this algebra (in py.w_state), and
        # a reference back would make a cycle only the cycle collector frees.
        self.pyramid_key = py._key()
        # The PBW order (module docstring) is decided here alone.  all_pairs
        # lists the pairs lexicographically and the sort is stable, so equal
        # keys keep that order: the diagonal pairs come in py.boxes order
        # (ndiag of them lead the basis), and the other pairs of one degree
        # compare as tuples of boxes.
        def key(pr: Pair) -> tuple[bool, int, bool]:
            d = py.degree(pr)
            return (d < 0, d, pr[0] != pr[1])

        self.pairs: tuple[Pair, ...] = tuple(sorted(all_pairs(py), key=key))
        self.index: dict[Pair, int] = {pr: k for k, pr in enumerate(self.pairs)}
        self.parities: tuple[int, ...] = tuple(pair_parity(i, j) for (i, j) in self.pairs)
        self.p_count = sum(1 for pr in self.pairs if py.degree(pr) >= 0)
        self.ndiag = len(py.boxes)
        # chi(x) = (e_pi, x); e_pi is built once here, not once per m-pair.
        ep = e_pi(py)
        self.chi_values: tuple[int, ...] = tuple(
            int(superform(ep, lie_e(i, j))) for (i, j) in self.pairs[self.p_count :]
        )
        # Odd squares rewrite to (1/2)[x,x]; for gl(M|N) that bracket is 0.
        for k, pr in enumerate(self.pairs):
            if self.parities[k] and not bracket_pair(*pr, *pr).is_zero():
                raise AssertionError(f"odd self-bracket nonzero for {pr}")
        # [e_ij, e_kl] = delta_jk e_il -/+ delta_li e_kj vanishes unless
        # k == j or l == i, so commutes[x] for x = (i, j) is every pair
        # except those starting at box j or ending at box i.
        starts: dict[BoxIndex, int] = {}
        ends: dict[BoxIndex, int] = {}
        for k, (i, j) in enumerate(self.pairs):
            starts[i] = starts.get(i, 0) | 1 << k
            ends[j] = ends.get(j, 0) | 1 << k
        full = (1 << len(self.pairs)) - 1
        self.commutes: tuple[int, ...] = tuple(
            full & ~starts[j] & ~ends[i] for (i, j) in self.pairs
        )
        self._brackets: dict[tuple[int, int], tuple[tuple[int, int], ...]] = {}
        # generator index -> {normal monomial: (m1, c1, m2, c2, ...)}
        self._gen_memo: dict[int, dict[tuple, tuple]] = {}

    # -- structure constants -------------------------------------------

    def _bracket_idx(self, x: int, y: int) -> tuple[tuple[int, int], ...]:
        key = (x, y)
        hit = self._brackets.get(key)
        if hit is None:
            lie = bracket_pair(*self.pairs[x], *self.pairs[y])
            hit = tuple((self.index[pr], int(c)) for pr, c in lie.terms.items())
            self._brackets[key] = hit
        return hit

    # -- straightening --------------------------------------------------

    def _gen_times_mono(self, x: int, mono: tuple, c: Scalar, acc: dict) -> None:
        """acc += c·x·mono for generator x and normal monomial mono.

        The factors of mono below x are walked first.  When x supercommutes
        with each of them (bit set in commutes[x]), the normal form is the
        single monomial with x inserted at the first factor >= x, with sign
        (-1)^{p(x)·#odd factors passed}, or 0 when that factor is x itself
        and x is odd; such a word is added directly and never memoized.
        This covers the already-normal words (no factor below x).  Any other
        word is straightened recursively and its normal form is memoized
        in x's own dict (made on its first miss) under mono, as the flat
        tuple (m1, c1, m2, c2, ...).  This is the engine's only product memo.
        """
        par = self.parities
        comm = self.commutes[x]
        n = len(mono)
        k = 0
        odd = 0
        while k < n and mono[k] < x and comm >> mono[k] & 1:
            odd ^= par[mono[k]]
            k += 1
        if k < n and mono[k] < x:
            memo = self._gen_memo.get(x)
            if memo is None:
                memo = self._gen_memo[x] = {}
            res = memo.get(mono)
            if res is None:
                y = mono[0]
                rest = mono[1:]
                sgn = -1 if (par[x] and par[y]) else 1
                x_rest: dict = {}
                self._gen_times_mono(x, rest, 1, x_rest)
                out: dict = {}
                for sub, cs in x_rest.items():
                    self._gen_times_mono(y, sub, sgn * cs, out)
                for z, cz in self._bracket_idx(x, y):
                    self._gen_times_mono(z, rest, cz, out)
                res = memo[mono] = tuple(chain.from_iterable(out.items()))
            it = iter(res)
            _add_scaled(acc, zip(it, it), c)
            return
        if par[x]:
            if k < n and mono[k] == x:
                return
            if odd:
                c = -c
        word = mono[:k] + (x,) + mono[k:]
        v = acc.get(word, 0) + c
        if v:
            acc[word] = v
        elif word in acc:
            del acc[word]

    def _times(self, a: dict, b: dict, acc: dict | None = None) -> dict:
        """Normal form of a·b for term dicts a and b (not mutated), added
        into acc when given.

        Horner's scheme over the suffix trie of a: the terms of a are
        grouped by their last factor x, so a = sum_x a_x·x + a_0 with a_0
        scalar; x·b is straightened once per group, one kernel call per term
        of b, and then multiplied on the left by the prefixes a_x.
        """
        if acc is None:
            acc = {}
        groups: dict[int, dict] = {}
        for mono, c in a.items():
            if mono:
                groups.setdefault(mono[-1], {})[mono[:-1]] = c
            else:
                _add_scaled(acc, b.items(), c)
        for x, prefixes in groups.items():
            xb: dict = {}
            for mono, c in b.items():
                self._gen_times_mono(x, mono, c, xb)
            if xb:
                self._times(prefixes, xb, acc)
        return acc

    def mono_parity(self, mono: tuple) -> int:
        par = 0
        for idx in mono:
            par ^= self.parities[idx]
        return par


class UEAElement:
    """Sparse rational combination of normal monomials in one algebra."""

    __slots__ = ("algebra", "terms")

    def __init__(self, algebra: EnvelopingAlgebra, terms: Mapping[tuple, Scalar] | None = None):
        self.algebra = algebra
        data: dict[tuple, Scalar] = {}
        if terms:
            _add_scaled(data, terms.items(), 1)
        self.terms = data

    # -- constructors ---------------------------------------------------

    @classmethod
    def _raw(cls, algebra: EnvelopingAlgebra, terms: dict) -> "UEAElement":
        out = cls.__new__(cls)
        out.algebra = algebra
        out.terms = terms
        return out

    # -- ring structure -------------------------------------------------

    def _check_same(self, other: "UEAElement"):
        if self.algebra is not other.algebra:
            raise ValueError("elements belong to different algebras")

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = scalar_element(self.algebra, other)
        self._check_same(other)
        data = dict(self.terms)
        _add_scaled(data, other.terms.items(), 1)
        return UEAElement._raw(self.algebra, data)

    __radd__ = __add__

    def __neg__(self):
        return UEAElement._raw(self.algebra, {m: -c for m, c in self.terms.items()})

    def __sub__(self, other):
        if isinstance(other, (int, Fraction)):
            other = scalar_element(self.algebra, other)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            if not other:
                return UEAElement._raw(self.algebra, {})
            return UEAElement._raw(self.algebra, {m: c * other for m, c in self.terms.items()})
        self._check_same(other)
        return UEAElement._raw(self.algebra, self.algebra._times(self.terms, other.terms))

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.__mul__(other)
        return NotImplemented

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = scalar_element(self.algebra, other)
        return (
            isinstance(other, UEAElement)
            and self.algebra is other.algebra
            and self.terms == other.terms
        )

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    def parity(self) -> int | None:
        """Common parity of all monomials, None if mixed, 0 if zero."""
        seen = {self.algebra.mono_parity(m) for m in self.terms}
        if not seen:
            return 0
        if len(seen) > 1:
            return None
        return seen.pop()

    def in_U_p(self) -> bool:
        pc = self.algebra.p_count
        return all(idx < pc for mono in self.terms for idx in mono)

    def __str__(self) -> str:
        """Terms in sorted order, each monomial as e(i,j)^k factors joined by *."""
        if not self.terms:
            return "0"
        pairs = self.algebra.pairs
        bits = []
        for mono in sorted(self.terms):
            c = self.terms[mono]
            factors = []
            for idx, run in groupby(mono):
                (i, j), k = pairs[idx], len(list(run))
                factors.append(f"e({i},{j})" if k == 1 else f"e({i},{j})^{k}")
            word = "*".join(factors)
            if not word:
                bits.append(str(c))
            elif c == 1:
                bits.append(word)
            elif c == -1:
                bits.append(f"-{word}")
            else:
                bits.append(f"{c}*{word}")
        return " + ".join(bits).replace("+ -", "- ")

    __repr__ = __str__


# -- element constructors ----------------------------------------------


def scalar_element(alg: EnvelopingAlgebra, c: Scalar) -> UEAElement:
    return UEAElement(alg, {(): c} if c else {})


def identity(alg: EnvelopingAlgebra) -> UEAElement:
    return scalar_element(alg, 1)


def generator(alg: EnvelopingAlgebra, i: BoxIndex, j: BoxIndex, c: Scalar = 1) -> UEAElement:
    return UEAElement(alg, {(alg.index[(i, j)],): c})


def from_lie(alg: EnvelopingAlgebra, x: LieSuperElement) -> UEAElement:
    return UEAElement(alg, {(alg.index[pr],): c for pr, c in x.terms.items()})


# -- module operations --------------------------------------------------


def supercommutator(a: UEAElement, b: UEAElement) -> UEAElement:
    """[a, b] = ab - (-1)^{p(a)p(b)} ba, extended bilinearly over parity parts.

    With b = b_0 + b_1 split by parity, this is ab - b_0·a - b_1·a' where
    a' = a_0 - a_1, so mixed elements get the sign per pair of parts.
    """
    a._check_same(b)
    alg = a.algebra
    neg_b_even: dict = {}
    neg_b_odd: dict = {}
    for mono, c in b.terms.items():
        (neg_b_odd if alg.mono_parity(mono) else neg_b_even)[mono] = -c
    acc = alg._times(a.terms, b.terms)
    if neg_b_even:
        alg._times(neg_b_even, a.terms, acc)
    if neg_b_odd:
        a_signed = {m: -c if alg.mono_parity(m) else c for m, c in a.terms.items()}
        alg._times(neg_b_odd, a_signed, acc)
    return UEAElement._raw(alg, acc)


def _algebra_over(py: Pyramid, u: UEAElement) -> EnvelopingAlgebra:
    """The algebra of u, which must be built over a pyramid equal to py."""
    if u.algebra.pyramid_key != py._key():
        raise ValueError("element was built over a different pyramid")
    return u.algebra


def pr_chi(py: Pyramid, u: UEAElement) -> UEAElement:
    """Project U(g) onto U(p) along the left ideal generated by a - chi(a),
    a in m: u·a = chi(a)·u there, so trailing m-factors strip to chi values."""
    alg = _algebra_over(py, u)
    pc = alg.p_count
    chi_vals = alg.chi_values
    acc: dict = {}
    for mono, c in u.terms.items():
        k = len(mono)
        coeff = c
        while k > 0 and mono[k - 1] >= pc:
            coeff *= chi_vals[mono[k - 1] - pc]
            if not coeff:
                break
            k -= 1
        if not coeff:
            continue
        rest = mono[:k]
        v = acc.get(rest, 0) + coeff
        if v:
            acc[rest] = v
        elif rest in acc:
            del acc[rest]
    return UEAElement._raw(alg, acc)


def is_W_invariant(py: Pyramid, y: UEAElement) -> bool:
    """True iff y in U(p) is invariant under the chi-twisted m-action."""
    if not y.in_U_p():
        raise ValueError("y must lie in U(p)")
    alg = _algebra_over(py, y)
    for idx in range(alg.p_count, len(alg.pairs)):
        a_el = UEAElement._raw(alg, {(idx,): 1})
        if not pr_chi(py, supercommutator(a_el, y)).is_zero():
            return False
    return True


def evaluate_one_dim(py: Pyramid, u: UEAElement, diag) -> Scalar:
    """Evaluate u in U(p) on the one-dimensional p-module where the diagonal
    e_{i,i} acts by diag[i] and everything off-diagonal acts by zero.

    Evaluation reads the straightened normal form of u as given; it does
    not use any multiplicativity shortcut.
    """
    if not u.in_U_p():
        raise ValueError("u must lie in U(p)")
    alg = _algebra_over(py, u)
    nd = alg.ndiag
    total: Scalar = 0
    for mono, c in u.terms.items():
        val = c
        alive = True
        for idx in mono:
            if idx < nd:
                val *= diag[alg.pairs[idx][0]]
            else:
                alive = False
                break
        if alive:
            total += val
    return total
