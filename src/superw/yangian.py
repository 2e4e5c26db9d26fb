"""The distinguished W-elements of U(p) and the shifted-Yangian relation
verifier.

T_{i,j;x}^{(r)} is a signed sum of products of eta-shifted generators
over box-pair sequences subject to the column/row linking conditions; the
named generators are D_i^{(r)} = T_{i,i;i-1}^{(r)}, E_i^{(r)} =
T_{i,i+1;i}^{(r)} (levels above s_{i,i+1}), F_i^{(r)} = T_{i+1,i;i}^{(r)}
(levels above s_{i+1,i}).  The defining relations of the presentation are
registered under descriptive ids (RELATION_IDS); two of them admit
competing index readings, so their verifier reports every named reading
instead of silently picking one.
"""

from __future__ import annotations

from fractions import Fraction

from .gl import BoxIndex, parity
from .pyramid import Pyramid
from .pbw import (
    EnvelopingAlgebra,
    UEAElement,
    generator,
    identity,
    scalar_element,
    supercommutator,
)
from .weights import eta as eta_weight

Scalar = int | Fraction


class _Context:
    """The per-pyramid state: the enveloping algebra with its product memo,
    eta, the boxes of each row in column order, and the memo of T-suffix
    sums.  One context per pyramid lives until clear() drops it."""

    def __init__(self, py: Pyramid):
        self.py = py
        self.alg = EnvelopingAlgebra(py)
        self.eta = eta_weight(py)
        self.row_boxes: dict[int, list[BoxIndex]] = {
            r: [] for r in range(1, py.nrows + 1)
        }
        for b in py.boxes:
            self.row_boxes[py.row(b)].append(b)
        for r in self.row_boxes:
            self.row_boxes[r].sort(key=py.col)
        self.t_suffix: dict = {}


_contexts: dict[Pyramid, _Context] = {}


def _ctx(py: Pyramid) -> _Context:
    ctx = _contexts.get(py)
    if ctx is None:
        ctx = _Context(py)
        _contexts[py] = ctx
    return ctx


def algebra_for(py: Pyramid) -> EnvelopingAlgebra:
    """The enveloping algebra of py; equal pyramids share one algebra."""
    return _ctx(py).alg


def clear() -> None:
    """Drop every per-pyramid context, with its algebra, product memo and
    T-suffix memo, so their memory can be freed.

    Elements built before the call belong to a dropped algebra: mixing them
    with elements built after it raises ValueError.
    """
    _contexts.clear()


def _e_tilde(ctx: _Context, i: BoxIndex, j: BoxIndex) -> UEAElement:
    """(-1)^{col(j)-col(i)} (e_{i,j} + eta(e_{i,j})), defined for pairs in p."""
    dcol = ctx.py.col(j) - ctx.py.col(i)
    if dcol < 0:
        raise ValueError(f"e({i},{j}) lies outside p")
    sign = -1 if dcol % 2 else 1
    el = generator(ctx.alg, i, j, sign)
    if i == j:
        el = el + scalar_element(ctx.alg, sign * ctx.eta[i])
    return el


def _t_suffix(ctx: _Context, j: int, x: int, row: int, lo: int, hi: int, rem: int) -> UEAElement:
    """Sum over sequence completions: next pair starts in `row` with its
    left box confined to columns [lo, hi], `rem` budget still to spend."""
    key = (j, x, row, lo, hi, rem)
    hit = ctx.t_suffix.get(key)
    if hit is not None:
        return hit
    py = ctx.py
    total = UEAElement(ctx.alg)
    for a in ctx.row_boxes[row]:
        ca = py.col(a)
        if ca < lo or ca > hi:
            continue
        tp_sign = -1 if parity(a) else 1
        for rb in range(1, py.nrows + 1):
            for b in ctx.row_boxes[rb]:
                cb = py.col(b)
                if cb < ca:
                    continue
                cost = cb - ca + 1
                if cost > rem:
                    break
                factor = _e_tilde(ctx, a, b)
                if cost == rem:
                    if rb == j:
                        total = total + tp_sign * factor
                else:
                    if rb <= x:
                        link = -1
                        nlo, nhi = 1, cb
                    else:
                        link = 1
                        nlo, nhi = cb + 1, py.ell
                    tail = _t_suffix(ctx, j, x, rb, nlo, nhi, rem - cost)
                    if not tail.is_zero():
                        total = total + (tp_sign * link) * (factor * tail)
    ctx.t_suffix[key] = total
    return total


def T(py: Pyramid, i: int, j: int, x: int, r: int) -> UEAElement:
    """The element T_{i,j;x}^{(r)} of U(p)."""
    if not (1 <= i <= py.nrows and 1 <= j <= py.nrows):
        raise ValueError(f"row indices must lie in 1..{py.nrows}")
    if not (0 <= x <= py.nrows):
        raise ValueError(f"x must lie in 0..{py.nrows}")
    if r < 1:
        raise ValueError("r must be positive")
    return _t_suffix(_ctx(py), j, x, i, 1, py.ell, r)


# -- named generators ---------------------------------------------------


def D(py: Pyramid, i: int, r: int) -> UEAElement:
    if not 1 <= i <= py.nrows:
        raise ValueError(f"D index must lie in 1..{py.nrows}")
    if r < 0:
        raise ValueError("D level must be nonnegative")
    if r == 0:
        return identity(algebra_for(py))
    return T(py, i, i, i - 1, r)


def _E_raw(py: Pyramid, i: int, r: int) -> UEAElement:
    return T(py, i, i + 1, i, r)


def _F_raw(py: Pyramid, i: int, r: int) -> UEAElement:
    return T(py, i + 1, i, i, r)


def E(py: Pyramid, i: int, r: int) -> UEAElement:
    if not 1 <= i < py.nrows:
        raise ValueError(f"E index must lie in 1..{py.nrows - 1}")
    if r <= py.shift.s(i, i + 1):
        raise ValueError(
            f"E_{i} level {r} inadmissible: needs r > s_({i},{i+1}) = {py.shift.s(i, i + 1)}"
        )
    return _E_raw(py, i, r)


def F(py: Pyramid, i: int, r: int) -> UEAElement:
    if not 1 <= i < py.nrows:
        raise ValueError(f"F index must lie in 1..{py.nrows - 1}")
    if r <= py.shift.s(i + 1, i):
        raise ValueError(
            f"F_{i} level {r} inadmissible: needs r > s_({i+1},{i}) = {py.shift.s(i + 1, i)}"
        )
    return _F_raw(py, i, r)


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


RELATION_IDS = (
    "d-unit",          # D_i^{(0)} = 1 and D'_i^{(0)} = 1
    "d-inverse",       # the convolution defining the primed D series
    "dd-comm",         # [D_i^{(r)}, D_j^{(s)}] = 0
    "de",              # [D_i^{(r)}, E_j^{(s)}]
    "df",              # [D_i^{(r)}, F_j^{(s)}]
    "ef",              # [E_i^{(r)}, F_j^{(s)}]
    "ee-same",         # [E_i^{(r)}, E_i^{(s)}]
    "ff-same",         # [F_i^{(r)}, F_i^{(s)}]
    "ee-adjacent",     # mixed-level identity for E_i, E_{i+1}
    "ff-adjacent",     # mixed-level identity for F_i, F_{i+1}
    "ee-distant",      # [E_i, E_j] = 0 for |i-j| > 1
    "ff-distant",      # [F_i, F_j] = 0 for |i-j| > 1
    "ee-serre",        # cubic Serre identity for E
    "ff-serre",        # cubic Serre identity for F
    "ee-super-serre",  # quartic identity at an odd E node
    "ff-super-serre",  # quartic identity at an odd F node
)


def _norm_rel(rel: str) -> str:
    rel = rel.strip().strip("()")
    if rel not in RELATION_IDS:
        raise ValueError(f"unknown relation id {rel!r}; expected one of {RELATION_IDS}")
    return rel


def relation_report(py: Pyramid, rel: str, **kw) -> dict:
    """Evaluate one relation instance symbolically in U(p).

    Returns {"rel", "indices", "ok", "variants"}: "ok" is the verdict for
    the resolved reading; "variants" maps named alternative readings of
    the two suspect formulas to their own verdicts.
    """
    rel = _norm_rel(rel)
    alg = algebra_for(py)
    zero = UEAElement(alg)
    sgn_row = lambda i: -1 if py.row_sign(i) else 1
    variants: dict[str, bool] = {}

    if rel == "d-unit":
        i = kw["i"]
        ok = D(py, i, 0) == identity(alg) and d_prime_series([])[0] == 1
    elif rel == "d-inverse":
        i, r = kw["i"], kw["r"]
        ds = [D(py, i, t) for t in range(1, r + 1)]
        dp = d_prime_series(ds)
        lhs = sum((D(py, i, t) * dp[r - t] for t in range(0, r + 1)), zero)
        ok = lhs == (identity(alg) if r == 0 else zero)
    elif rel == "dd-comm":
        i, j, r, s = kw["i"], kw["j"], kw["r"], kw["s"]
        ok = supercommutator(D(py, i, r), D(py, j, s)).is_zero()
    elif rel == "de":
        i, j, r, s = kw["i"], kw["j"], kw["r"], kw["s"]
        lhs = supercommutator(D(py, i, r), E(py, j, s))
        coef = (1 if i == j else 0) - (1 if i == j + 1 else 0)
        if coef == 0 or r == 0:
            rhs = zero
        else:
            rhs = (sgn_row(i) * coef) * sum(
                (D(py, i, t) * _E_raw(py, j, r + s - 1 - t) for t in range(0, r)), zero
            )
        ok = lhs == rhs
    elif rel == "df":
        i, j, r, s = kw["i"], kw["j"], kw["r"], kw["s"]
        lhs = supercommutator(D(py, i, r), F(py, j, s))
        coef = (1 if i == j + 1 else 0) - (1 if i == j else 0)
        if coef == 0 or r == 0:
            rhs = zero
        else:
            rhs = (sgn_row(i) * coef) * sum(
                (_F_raw(py, j, r + s - 1 - t) * D(py, i, t) for t in range(0, r)), zero
            )
        ok = lhs == rhs
    elif rel == "ef":
        i, j, r, s = kw["i"], kw["j"], kw["r"], kw["s"]
        lhs = supercommutator(E(py, i, r), F(py, j, s))
        if i != j:
            rhs = zero
        else:
            top = r + s - 1
            dp = d_prime_series([D(py, i, t) for t in range(1, top + 1)])
            sign = -sgn_row(i + 1)
            rhs = sign * sum((dp[top - t] * D(py, i + 1, t) for t in range(0, top + 1)), zero)
        ok = lhs == rhs
    elif rel == "ee-same":
        i, r, s = kw["i"], kw["r"], kw["s"]
        lo = py.shift.s(i, i + 1) + 1
        lhs = supercommutator(E(py, i, r), E(py, i, s))
        pieces = [_E_raw(py, i, r + s - 1 - t) * _E_raw(py, i, t) for t in range(lo, s)]
        pieces += [-(_E_raw(py, i, r + s - 1 - t) * _E_raw(py, i, t)) for t in range(lo, r)]
        rhs = sgn_row(i + 1) * sum(pieces, zero)
        ok = lhs == rhs
    elif rel == "ff-same":
        i, r, s = kw["i"], kw["r"], kw["s"]
        lhs = supercommutator(F(py, i, r), F(py, i, s))

        def rhs_from(lo: int) -> UEAElement:
            pieces = [_F_raw(py, i, r + s - 1 - t) * _F_raw(py, i, t) for t in range(lo, r)]
            pieces += [-(_F_raw(py, i, r + s - 1 - t) * _F_raw(py, i, t)) for t in range(lo, s)]
            return sgn_row(i) * sum(pieces, zero)

        shift = py.shift.s(i + 1, i)
        ok = lhs == rhs_from(shift + 1)
        variants["lower_index_i"] = ok
        variants["lower_index_zero"] = ok if shift == 0 else lhs == rhs_from(1)
    elif rel == "ee-adjacent":
        i, r, s = kw["i"], kw["r"], kw["s"]
        lhs = supercommutator(E(py, i, r + 1), E(py, i + 1, s)) - supercommutator(
            E(py, i, r), E(py, i + 1, s + 1)
        )
        rhs = sgn_row(i + 1) * (E(py, i, r) * E(py, i + 1, s))
        ok = lhs == rhs
    elif rel == "ff-adjacent":
        i, r, s = kw["i"], kw["r"], kw["s"]
        lhs = supercommutator(F(py, i, r + 1), F(py, i + 1, s)) - supercommutator(
            F(py, i, r), F(py, i + 1, s + 1)
        )
        p0, p1, p2 = py.row_sign(i), py.row_sign(i + 1), py.row_sign(i + 2)
        sign = -1 if (1 + p0 * p1 + p1 * p2 + p0 * p2) % 2 else 1
        verbatim = lhs == sign * (_F_raw(py, i, s) * _F_raw(py, i, r))
        corrected = lhs == sign * (_F_raw(py, i + 1, s) * _F_raw(py, i, r))
        variants["verbatim_F_i"] = verbatim
        variants["corrected_F_i1"] = corrected
        ok = corrected
    elif rel in ("ee-distant", "ff-distant"):
        i, j, r, s = kw["i"], kw["j"], kw["r"], kw["s"]
        if abs(i - j) <= 1:
            raise ValueError(f"relation {rel} needs |i-j| > 1")
        make = E if rel == "ee-distant" else F
        ok = supercommutator(make(py, i, r), make(py, j, s)).is_zero()
    elif rel in ("ee-serre", "ff-serre"):
        i, j, r, s, t = kw["i"], kw["j"], kw["r"], kw["s"], kw["t"]
        if abs(i - j) != 1:
            raise ValueError(f"relation {rel} needs |i-j| = 1")
        make = E if rel == "ee-serre" else F
        lhs = supercommutator(make(py, i, r), supercommutator(make(py, i, s), make(py, j, t)))
        # with r == s the two summands coincide, and 2X = 0 iff X = 0 over Q
        if r != s:
            lhs = lhs + supercommutator(
                make(py, i, s), supercommutator(make(py, i, r), make(py, j, t))
            )
        ok = lhs.is_zero()
    elif rel in ("ee-super-serre", "ff-super-serre"):
        i, r, s = kw["i"], kw["r"], kw["s"]
        if py.nrows < 4:
            raise ValueError(f"relation {rel} needs m+n >= 4")
        if not 2 <= i <= py.nrows - 2:
            raise ValueError(f"relation {rel} needs 2 <= i <= m+n-2")
        if generator_parity(py, i) != 1:
            raise ValueError(f"relation {rel} needs |i| + |i+1| = 1")
        if rel == "ee-super-serre":
            mid = py.shift.s(i, i + 1) + 1
            lhs = supercommutator(
                supercommutator(E(py, i - 1, r), E(py, i, mid)),
                supercommutator(E(py, i, mid), E(py, i + 1, s)),
            )
        else:
            mid = py.shift.s(i + 1, i) + 1
            lhs = supercommutator(
                supercommutator(F(py, i - 1, r), F(py, i, mid)),
                supercommutator(F(py, i, mid), F(py, i + 1, s)),
            )
        ok = lhs.is_zero()
    else:  # pragma: no cover
        raise AssertionError(rel)

    indices = {k: kw[k] for k in ("i", "j", "r", "s", "t") if k in kw}
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

    def e_levels(i):
        return range(smat(i, i + 1) + 1, max_level + 1)

    def f_levels(i):
        return range(smat(i + 1, i) + 1, max_level + 1)

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
                for s in e_levels(j):
                    yield "de", {"i": i, "j": j, "r": r, "s": s}
                for s in f_levels(j):
                    yield "df", {"i": i, "j": j, "r": r, "s": s}
    for i in range(1, n):
        for j in range(1, n):
            for r in e_levels(i):
                for s in f_levels(j):
                    yield "ef", {"i": i, "j": j, "r": r, "s": s}
    for i in range(1, n):
        for r in e_levels(i):
            for s in e_levels(i):
                if s > r:
                    yield "ee-same", {"i": i, "r": r, "s": s}
        for r in f_levels(i):
            for s in f_levels(i):
                if s > r:
                    yield "ff-same", {"i": i, "r": r, "s": s}
    for i in range(1, n - 1):
        for r in e_levels(i):
            for s in e_levels(i + 1):
                yield "ee-adjacent", {"i": i, "r": r, "s": s}
        for r in f_levels(i):
            for s in f_levels(i + 1):
                yield "ff-adjacent", {"i": i, "r": r, "s": s}
    for i in range(1, n):
        for j in range(1, n):
            if abs(i - j) > 1:
                for r in e_levels(i):
                    for s in e_levels(j):
                        yield "ee-distant", {"i": i, "j": j, "r": r, "s": s}
                for r in f_levels(i):
                    for s in f_levels(j):
                        yield "ff-distant", {"i": i, "j": j, "r": r, "s": s}
    for i in range(1, n):
        for j in range(1, n):
            if abs(i - j) == 1:
                for r in e_levels(i):
                    for s in e_levels(i):
                        if s < r:
                            continue
                        for t in e_levels(j):
                            yield "ee-serre", {"i": i, "j": j, "r": r, "s": s, "t": t}
                for r in f_levels(i):
                    for s in f_levels(i):
                        if s < r:
                            continue
                        for t in f_levels(j):
                            yield "ff-serre", {"i": i, "j": j, "r": r, "s": s, "t": t}
    if n >= 4:
        for i in range(2, n - 1):
            if generator_parity(py, i) != 1:
                continue
            for r in e_levels(i - 1):
                for s in e_levels(i + 1):
                    yield "ee-super-serre", {"i": i, "r": r, "s": s}
            for r in f_levels(i - 1):
                for s in f_levels(i + 1):
                    yield "ff-super-serre", {"i": i, "r": r, "s": s}
