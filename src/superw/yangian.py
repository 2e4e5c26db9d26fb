"""The distinguished W-elements of U(p) and the shifted-Yangian relation
verifier.

T_{i,j;x}^{(r)} is a signed sum of products of eta-shifted generators
over box-pair sequences subject to the column/row linking conditions; the
named generators are D_i^{(r)} = T_{i,i;i-1}^{(r)}, E_i^{(r)} =
T_{i,i+1;i}^{(r)} (levels above s_{i,i+1}), F_i^{(r)} = T_{i+1,i;i}^{(r)}
(levels above s_{i+1,i}).  The defining relations of the presentation are
families with descriptive ids (RELATION_IDS); _INDICES maps each id to the
index letters that relation_report takes as keywords.  Two families admit
competing index readings, so their verifier reports every named reading
instead of silently picking one.
"""

from __future__ import annotations

from .gl import parity
from .pyramid import Pyramid
from .pbw import (
    EnvelopingAlgebra,
    UEAElement,
    _add_scaled,
    identity,
    supercommutator,
)
from .weights import eta as eta_weight


class _State:
    """One pyramid's W-algebra state: the enveloping algebra with its product
    memo, eta and the T-suffix memo.  It lives in py.w_state and holds no
    reference back to py, so refcounting frees it with py and its elements."""

    __slots__ = ("alg", "eta", "t_suffix")

    def __init__(self, py: Pyramid):
        self.alg = EnvelopingAlgebra(py)
        self.eta = eta_weight(py)
        self.t_suffix: dict = {}


def _state(py: Pyramid) -> _State:
    if py.w_state is None:
        py.w_state = _State(py)
    return py.w_state


def algebra_for(py: Pyramid) -> EnvelopingAlgebra:
    """The enveloping algebra of py, built on first use and owned by py."""
    return _state(py).alg


def _t_suffix(py: Pyramid, j: int, x: int, row: int, lo: int, hi: int, rem: int) -> UEAElement:
    """Sum over sequence completions: next pair starts in `row` with its
    left box confined to columns [lo, hi], `rem` budget still to spend.
    A pair (a, b) adds coef·(e_{a,b} + eta(e_{a,b}))·tail to one dict, where
    coef folds (-1)^{col(b)-col(a)}, the parity sign of a and the link sign."""
    st = _state(py)
    key = (j, x, row, lo, hi, rem)
    hit = st.t_suffix.get(key)
    if hit is not None:
        return hit
    alg = st.alg
    acc: dict = {}
    for a in py.row_boxes[row - 1]:
        ca = py.col(a)
        if ca < lo or ca > hi:
            continue
        tp_sign = -1 if parity(a) else 1
        for rb, boxes in enumerate(py.row_boxes, start=1):
            for b in boxes:
                cb = py.col(b)
                if cb < ca:
                    continue
                cost = cb - ca + 1
                if cost > rem:
                    break
                if cost == rem:
                    if rb != j:
                        continue
                    link, tail = 1, {(): 1}
                else:
                    if rb <= x:
                        link = -1
                        nlo, nhi = 1, cb
                    else:
                        link = 1
                        nlo, nhi = cb + 1, py.ell
                    tail = _t_suffix(py, j, x, rb, nlo, nhi, rem - cost).terms
                    if not tail:
                        continue
                coef = tp_sign * link * (-1 if (cb - ca) % 2 else 1)
                ab = alg.index[(a, b)]
                for mono, c in tail.items():
                    alg._gen_times_mono(ab, mono, coef * c, acc)
                if a == b and st.eta[a]:
                    _add_scaled(acc, tail.items(), coef * st.eta[a])
    total = UEAElement._raw(alg, acc)
    st.t_suffix[key] = total
    return total


def T(py: Pyramid, i: int, j: int, x: int, r: int) -> UEAElement:
    """The element T_{i,j;x}^{(r)} of U(p).

    With |i - j| >= 2 it is not W-invariant for every x: on p = (1, 1, 1, 2),
    signs 0000, T_{1,4;1}^{(2)} lies in U(p) but is not invariant, while
    T_{1,4;3}^{(2)} is.  The root elements are higher_E and higher_F.
    """
    if not (1 <= i <= py.nrows and 1 <= j <= py.nrows):
        raise ValueError(f"row indices must lie in 1..{py.nrows}")
    if not (0 <= x <= py.nrows):
        raise ValueError(f"x must lie in 0..{py.nrows}")
    if r < 1:
        raise ValueError("r must be positive")
    return _t_suffix(py, j, x, i, 1, py.ell, r)


# -- named generators ---------------------------------------------------


def D(py: Pyramid, i: int, r: int) -> UEAElement:
    if not 1 <= i <= py.nrows:
        raise ValueError(f"D index must lie in 1..{py.nrows}")
    if r < 0:
        raise ValueError("D level must be nonnegative")
    if r == 0:
        return identity(algebra_for(py))
    return T(py, i, i, i - 1, r)


def E(py: Pyramid, i: int, r: int) -> UEAElement:
    if not 1 <= i < py.nrows:
        raise ValueError(f"E index must lie in 1..{py.nrows - 1}")
    if r <= py.shift.s(i, i + 1):
        raise ValueError(
            f"E_{i} level {r} inadmissible: needs r > s_({i},{i+1}) = {py.shift.s(i, i + 1)}"
        )
    return T(py, i, i + 1, i, r)


def F(py: Pyramid, i: int, r: int) -> UEAElement:
    if not 1 <= i < py.nrows:
        raise ValueError(f"F index must lie in 1..{py.nrows - 1}")
    if r <= py.shift.s(i + 1, i):
        raise ValueError(
            f"F_{i} level {r} inadmissible: needs r > s_({i+1},{i}) = {py.shift.s(i + 1, i)}"
        )
    return T(py, i + 1, i, i, r)


def generator_parity(py: Pyramid, i: int) -> int:
    """Parity of E_i^{(r)} and F_i^{(r)}: |i| + |i+1| mod 2."""
    return (py.row_sign(i) + py.row_sign(i + 1)) & 1


def higher_E(py: Pyramid, i: int, j: int, r: int) -> UEAElement:
    """Root element E_{i,j}^{(r)} for i < j, defined by the bracket recursion."""
    if not 1 <= i < j <= py.nrows:
        raise ValueError("need 1 <= i < j <= m+n")
    if r <= py.shift.s(i, j):
        raise ValueError(f"E_({i},{j}) level {r} inadmissible: needs r > {py.shift.s(i, j)}")
    if j == i + 1:
        return E(py, i, r)
    step = py.shift.s(j - 1, j)
    sign = -1 if py.row_sign(j - 1) else 1
    return sign * supercommutator(higher_E(py, i, j - 1, r - step), E(py, j - 1, step + 1))


def higher_F(py: Pyramid, j: int, i: int, t: int) -> UEAElement:
    """Root element F_{j,i}^{(t)} for j > i, by the bracket recursion."""
    if not 1 <= i < j <= py.nrows:
        raise ValueError("need 1 <= i < j <= m+n")
    if t <= py.shift.s(j, i):
        raise ValueError(f"F_({j},{i}) level {t} inadmissible: needs t > {py.shift.s(j, i)}")
    if j == i + 1:
        return F(py, i, t)
    step = py.shift.s(j, j - 1)
    sign = -1 if py.row_sign(j - 1) else 1
    return sign * supercommutator(F(py, j - 1, step + 1), higher_F(py, j - 1, i, t - step))


# -- inverse series -----------------------------------------------------


def series_quotient(num, den, n: int) -> list:
    """The coefficients of u^0, ..., u^{-n} in num(u)/den(u), where
    num(u) = sum_r num[r] u^{-r}, den[0] = 1, and coefficients past either
    list are 0.  Works for scalars and for commuting UEAElements; each
    product is taken as den^{(t)}·quotient^{(r-t)}."""
    out = []
    for r in range(n + 1):
        rest = sum(den[t] * out[r - t] for t in range(1, min(r, len(den) - 1) + 1))
        out.append((num[r] if r < len(num) else 0) - rest)
    return out


def d_prime_series(series) -> list:
    """[D'^{(0)}, ..., D'^{(r)}] from [D^{(1)}, ..., D^{(r)}], the series
    D'(u) = D(u)^{-1}; works for scalars and for UEAElements alike."""
    series = list(series)
    if series and isinstance(series[0], UEAElement):
        one = identity(series[0].algebra)
    else:
        one = 1
    return series_quotient([one], [one] + series, len(series))


# -- relations ----------------------------------------------------------


# Every relation family and the index letters its instances take.
_INDICES = {
    "d-unit": "i",              # D_i^{(0)} = 1 and D'_i^{(0)} = 1
    "d-inverse": "ir",          # the convolution defining the primed D series
    "dd-comm": "ijrs",          # [D_i^{(r)}, D_j^{(s)}] = 0
    "de": "ijrs",               # [D_i^{(r)}, E_j^{(s)}]
    "df": "ijrs",               # [D_i^{(r)}, F_j^{(s)}]
    "ef": "ijrs",               # [E_i^{(r)}, F_j^{(s)}]
    "ee-same": "irs",           # [E_i^{(r)}, E_i^{(s)}]
    "ff-same": "irs",           # [F_i^{(r)}, F_i^{(s)}]
    "ee-adjacent": "irs",       # mixed-level identity for E_i, E_{i+1}
    "ff-adjacent": "irs",       # mixed-level identity for F_i, F_{i+1}
    "ee-distant": "ijrs",       # [E_i, E_j] = 0 for |i-j| > 1
    "ff-distant": "ijrs",       # [F_i, F_j] = 0 for |i-j| > 1
    "ee-serre": "ijrst",        # cubic Serre identity for E
    "ff-serre": "ijrst",        # cubic Serre identity for F
    "ee-super-serre": "irs",    # quartic identity at an odd E node
    "ff-super-serre": "irs",    # quartic identity at an odd F node
}
RELATION_IDS = tuple(_INDICES)


def _norm_rel(rel: str) -> str:
    rel = rel.strip()
    if rel not in RELATION_IDS:
        raise ValueError(f"unknown relation id {rel!r}; expected one of {RELATION_IDS}")
    return rel


def relation_report(py: Pyramid, rel: str, **indices) -> dict:
    """Evaluate one relation instance symbolically in U(p).

    The keyword indices must be exactly the family's letters in _INDICES.
    Returns {"rel", "indices", "ok", "variants"}: "ok" is the verdict for
    the resolved reading; "variants" maps named alternative readings of
    the two suspect formulas to their own verdicts.
    """
    rel = _norm_rel(rel)
    names = _INDICES[rel]
    if sorted(indices) != list(names):
        got = ", ".join(sorted(indices)) or "none"
        raise ValueError(f"relation {rel} takes indices {', '.join(names)}; got {got}")
    i, j, r, s, t = (indices.get(k) for k in "ijrst")
    alg = algebra_for(py)
    zero = UEAElement(alg)
    sgn_row = lambda i: -1 if py.row_sign(i) else 1
    make = E if rel[0] == "e" else F  # the generator of the sided families
    variants: dict[str, bool] = {}

    if rel == "d-unit":
        ok = D(py, i, 0) == identity(alg) and d_prime_series([])[0] == 1
    elif rel == "d-inverse":
        # D' comes from series_quotient, so this sum is delta_{r0} for any
        # series with constant term 1, commuting or not: the family checks
        # the product arithmetic of U(p), not the generators.
        dp = d_prime_series([D(py, i, t) for t in range(1, r + 1)])
        lhs = sum((D(py, i, t) * dp[r - t] for t in range(0, r + 1)), zero)
        ok = lhs == (identity(alg) if r == 0 else zero)
    elif rel == "dd-comm":
        ok = supercommutator(D(py, i, r), D(py, j, s)).is_zero()
    elif rel == "de":
        lhs = supercommutator(D(py, i, r), E(py, j, s))
        coef = sgn_row(i) * (int(i == j) - int(i == j + 1))
        # each right-hand level r+s-1-t is at least s, so admissible
        terms = (D(py, i, t) * E(py, j, r + s - 1 - t) for t in range(r if coef else 0))
        ok = lhs == coef * sum(terms, zero)
    elif rel == "df":
        lhs = supercommutator(D(py, i, r), F(py, j, s))
        coef = sgn_row(i) * (int(i == j + 1) - int(i == j))
        terms = (F(py, j, r + s - 1 - t) * D(py, i, t) for t in range(r if coef else 0))
        ok = lhs == coef * sum(terms, zero)
    elif rel == "ef":
        lhs = supercommutator(E(py, i, r), F(py, j, s))
        if i != j:
            ok = lhs.is_zero()
        else:
            top = r + s - 1
            dp = d_prime_series([D(py, i, t) for t in range(1, top + 1)])
            terms = (dp[top - t] * D(py, i + 1, t) for t in range(0, top + 1))
            ok = lhs == -sgn_row(i + 1) * sum(terms, zero)
    elif rel == "ee-same":
        # t >= lo, and r+s-1-t >= r or >= s over the two ranges: all admissible
        lo = py.shift.s(i, i + 1) + 1
        lhs = supercommutator(E(py, i, r), E(py, i, s))
        pieces = [E(py, i, r + s - 1 - t) * E(py, i, t) for t in range(lo, s)]
        pieces += [-(E(py, i, r + s - 1 - t) * E(py, i, t)) for t in range(lo, r)]
        ok = lhs == sgn_row(i + 1) * sum(pieces, zero)
    elif rel == "ff-same":
        lo = py.shift.s(i + 1, i) + 1
        lhs = supercommutator(F(py, i, r), F(py, i, s))
        pieces = [F(py, i, r + s - 1 - t) * F(py, i, t) for t in range(lo, r)]
        pieces += [-(F(py, i, r + s - 1 - t) * F(py, i, t)) for t in range(lo, s)]
        ok = lhs == sgn_row(i) * sum(pieces, zero)
        # Summing from t = 1 instead adds each product with t < lo to both
        # sums, once negated; admissible r, s >= lo put every such t in both
        # ranges, so the products cancel and the two readings are one element.
        variants["lower_index_i"] = variants["lower_index_zero"] = ok
    elif rel == "ee-adjacent":
        lhs = supercommutator(E(py, i, r + 1), E(py, i + 1, s)) - supercommutator(
            E(py, i, r), E(py, i + 1, s + 1)
        )
        ok = lhs == sgn_row(i + 1) * (E(py, i, r) * E(py, i + 1, s))
    elif rel == "ff-adjacent":
        lhs = supercommutator(F(py, i, r + 1), F(py, i + 1, s)) - supercommutator(
            F(py, i, r), F(py, i + 1, s + 1)
        )
        p0, p1, p2 = py.row_sign(i), py.row_sign(i + 1), py.row_sign(i + 2)
        sign = -1 if (1 + p0 * p1 + p1 * p2 + p0 * p2) % 2 else 1
        # the verbatim reading takes F_i at F_{i+1}'s level s, which can lie
        # below F_i's lowest level, so it builds T_{i+1,i;i}^{(s)} directly
        variants["verbatim_F_i"] = lhs == sign * (T(py, i + 1, i, i, s) * F(py, i, r))
        ok = variants["corrected_F_i1"] = lhs == sign * (F(py, i + 1, s) * F(py, i, r))
    elif rel in ("ee-distant", "ff-distant"):
        if abs(i - j) <= 1:
            raise ValueError(f"relation {rel} needs |i-j| > 1")
        ok = supercommutator(make(py, i, r), make(py, j, s)).is_zero()
    elif rel in ("ee-serre", "ff-serre"):
        if abs(i - j) != 1:
            raise ValueError(f"relation {rel} needs |i-j| = 1")
        lhs = supercommutator(make(py, i, r), supercommutator(make(py, i, s), make(py, j, t)))
        # with r == s the two summands coincide, and 2X = 0 iff X = 0 over Q
        if r != s:
            lhs = lhs + supercommutator(
                make(py, i, s), supercommutator(make(py, i, r), make(py, j, t))
            )
        ok = lhs.is_zero()
    elif rel in ("ee-super-serre", "ff-super-serre"):
        if py.nrows < 4:
            raise ValueError(f"relation {rel} needs m+n >= 4")
        if not 2 <= i <= py.nrows - 2:
            raise ValueError(f"relation {rel} needs 2 <= i <= m+n-2")
        if generator_parity(py, i) != 1:
            raise ValueError(f"relation {rel} needs |i| + |i+1| = 1")
        mid = (py.shift.s(i, i + 1) if make is E else py.shift.s(i + 1, i)) + 1
        lhs = supercommutator(
            supercommutator(make(py, i - 1, r), make(py, i, mid)),
            supercommutator(make(py, i, mid), make(py, i + 1, s)),
        )
        ok = lhs.is_zero()
    else:  # pragma: no cover
        raise AssertionError(rel)

    indices = {k: indices[k] for k in names}  # in ijrst order, as printed
    return {"rel": rel, "indices": indices, "ok": bool(ok), "variants": variants}


def truncation_vanishing(py: Pyramid, r: int) -> bool:
    """T_{1,1;0}^{(r)} must vanish for levels beyond the top row length."""
    if r <= py.p[0]:
        raise ValueError(f"truncation check needs r > p_1 = {py.p[0]}")
    return T(py, 1, 1, 0, r).is_zero()


# -- instance enumeration (shared by the CLI and the test suite) --------


def iter_relation_instances(py: Pyramid, max_level: int = 3):
    """Deterministic stream of (rel, kwargs) for all admissible instances
    with every free level bounded by max_level."""
    n = py.nrows
    smat = py.shift.s
    # each paired family walks E's instances, then F's, at the same outer
    # indices: (family letter, admissible levels of E_i or F_i)
    sides = (
        ("e", lambda i: range(smat(i, i + 1) + 1, max_level + 1)),
        ("f", lambda i: range(smat(i + 1, i) + 1, max_level + 1)),
    )
    (_, e_levels), (_, f_levels) = sides

    for i in range(1, n + 1):
        yield "d-unit", {"i": i}
        for r in range(0, max_level + 1):
            yield "d-inverse", {"i": i, "r": r}
    for i in range(1, n + 1):
        for j in range(i, n + 1):
            for r in range(1, max_level + 1):
                for s in range(r if i == j else 1, max_level + 1):
                    yield "dd-comm", {"i": i, "j": j, "r": r, "s": s}
    for i in range(1, n + 1):
        for j in range(1, n):
            for r in range(1, max_level + 1):
                for x, levels in sides:
                    for s in levels(j):
                        yield "d" + x, {"i": i, "j": j, "r": r, "s": s}
    for i in range(1, n):
        for j in range(1, n):
            for r in e_levels(i):
                for s in f_levels(j):
                    yield "ef", {"i": i, "j": j, "r": r, "s": s}
    for i in range(1, n):
        for x, levels in sides:
            for r in levels(i):
                for s in range(r + 1, max_level + 1):
                    yield x + x + "-same", {"i": i, "r": r, "s": s}
    for i in range(1, n - 1):
        for x, levels in sides:
            for r in levels(i):
                for s in levels(i + 1):
                    yield x + x + "-adjacent", {"i": i, "r": r, "s": s}
    # distant and Serre stay two passes: one shared (i, j) walk would
    # interleave their instances
    for i in range(1, n):
        for j in range(1, n):
            if abs(i - j) > 1:
                for x, levels in sides:
                    for r in levels(i):
                        for s in levels(j):
                            yield x + x + "-distant", {"i": i, "j": j, "r": r, "s": s}
    for i in range(1, n):
        for j in range(1, n):
            if abs(i - j) == 1:
                for x, levels in sides:
                    for r in levels(i):
                        for s in range(r, max_level + 1):
                            for t in levels(j):
                                yield x + x + "-serre", {"i": i, "j": j, "r": r, "s": s, "t": t}
    for i in range(2, n - 1):
        if generator_parity(py, i) == 1:
            for x, levels in sides:
                for r in levels(i - 1):
                    for s in levels(i + 1):
                        yield x + x + "-super-serre", {"i": i, "r": r, "s": s}
