"""One pass of a benchmark workload, run in a fresh interpreter.

Usage (normally spawned by run.py, with PYTHONPATH pointing at src/):

    python bench/workloads.py WORKLOAD SEED SIZE MODE [TRACE_FILE]

The pass imports superw.cli, builds its inputs from SEED, prints the line
READY, then runs its items back to back (a closed loop with one client)
and checks each output.  Its last stdout line is one JSON object with the
item latencies, rusage figures, failures and, when TRACE is 1, the
per-layer metrics computed from the recorded spans when MODE is "trace".
MODE "run" records no spans, and "setup" stops right after READY, so that
run.py can time set-up alone.  SIZE is "full" or "tiny".
"""

from __future__ import annotations

import contextlib
import json
import random
import resource
import sys
import time
from collections import Counter
from fractions import Fraction

_t_start = time.perf_counter()
import superw.cli  # noqa: E402,F401  (the import is what cli.import_s times)

_t_imported = time.perf_counter()

from superw.gl import centralizer_dims  # noqa: E402
from superw.onedim import (  # noqa: E402
    eigenvalues_of,
    quotient_relation_check,
    symbolic_module_check,
    tableau_from_eigenvalues,
    weight_space_search,
)
from superw.pbw import is_W_invariant  # noqa: E402
from superw.pyramid import (  # noqa: E402
    e_pi,
    enumerate_pyramids,
    from_shift,
    good_pair_check,
)
from superw.tableau import (  # noqa: E402
    Tableau,
    classify,
    find_cc_representative,
    is_column_connected,
    row_equivalent,
)
from superw.yangian import (  # noqa: E402
    D,
    E,
    F,
    RELATION_IDS,
    iter_relation_instances,
    relation_report,
    truncation_vanishing,
)

# The nine-box gl(3|6) flagship and the four-row host whose row pair (2, 3)
# crosses parities, so that the distant and super-Serre families exist.
FLAGSHIP = ([[0, 1, 1], [0, 0, 0], [1, 1, 0]], 4, "101")
PY4 = ([[0, 0, 1, 2], [0, 0, 1, 2], [0, 0, 0, 1], [1, 1, 1, 0]], 4, "0101")

# Pass sizes.  "full" is what the benchmark measures; "tiny" keeps the
# smoke tests to a few seconds.  A full pass of pyramid-sweep or
# module-roundtrip is a few seconds on a 2-CPU machine, so a 40 s run has
# several passes to take medians over; wgen-verify is one pass of about 20 s.
SIZES = {
    "wgen-verify": {
        "full": {"hosts": [(FLAGSHIP, 3), (PY4, 3)]},
        "tiny": {"hosts": [(FLAGSHIP, 2)]},
    },
    "pyramid-sweep": {
        "full": {"max_boxes": 8, "max_ell": 6, "sample": 120, "multisets": 10},
        "tiny": {"max_boxes": 5, "max_ell": 4, "sample": 30, "multisets": 3},
    },
    "module-roundtrip": {
        "full": {"max_boxes": 6, "per_pyramid": 4, "large_frac": 0.25,
                 "symbolic_per_pyramid": 1},
        "tiny": {"max_boxes": 3, "per_pyramid": 3, "large_frac": 0.34,
                 "symbolic_per_pyramid": 1},
    },
}

CLASSIFY_POOL = (-2, -1, 0, 1)
# Column top values have numerators up to SMALL_MAG.  A large-entry tableau
# gives one seeded column a numerator up to LARGE_MAG instead: the rational
# root finder then has a large constant term to factor, while the other
# columns stay small, so that no item can take more than milliseconds.
SMALL_MAG = 8
LARGE_MAG = 10**6


def _maxrss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _cpu_s() -> float:
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


_NULL_SPAN = contextlib.nullcontext()


class Tracer:
    """Spans kept in memory as (name, start, end, parent, item id).

    A disabled tracer hands out one shared no-op context, so the untraced
    passes pay only an attribute lookup and a call per span.
    """

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.item = None

    def span(self, name: str):
        return _Span(self, name) if self.enabled else _NULL_SPAN

    def self_times(self) -> dict[str, float]:
        """Per span name, the summed duration minus the time covered by
        child spans."""
        child = [0.0] * len(self.spans)
        for name, t0, t1, parent, _ in self.spans:
            if parent is not None:
                child[parent] += t1 - t0
        out: dict[str, float] = {}
        for k, (name, t0, t1, _, _) in enumerate(self.spans):
            out[name] = out.get(name, 0.0) + (t1 - t0) - child[k]
        return out

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for name, t0, t1, parent, item in self.spans:
                fh.write(json.dumps({"name": name, "start": t0, "end": t1,
                                     "parent": parent, "item": item}) + "\n")


class _Span:
    __slots__ = ("tracer", "name", "index")

    def __init__(self, tracer: Tracer, name: str):
        self.tracer = tracer
        self.name = name

    def __enter__(self):
        tr = self.tracer
        parent = tr._stack[-1] if tr._stack else None
        self.index = len(tr.spans)
        tr.spans.append([self.name, time.perf_counter(), None, parent, tr.item])
        tr._stack.append(self.index)
        return self

    def __exit__(self, *exc):
        tr = self.tracer
        tr.spans[self.index][2] = time.perf_counter()
        tr._stack.pop()
        return False


class Pass:
    """Items, their latencies and their verdicts for one pass."""

    def __init__(self, tracer: Tracer):
        self.tr = tracer
        self.latencies: list[float] = []
        self.failures: list[str] = []  # items that raised or gave a wrong verdict
        self.problems: list[str] = []  # whole-pass checks that failed
        self.counts: Counter = Counter()
        self.extra: dict = {}
        self.first = self.last = None
        self.cpu0 = None

    def run(self, label: tuple, fn, *args) -> None:
        """Time one item; an exception or a False verdict is a failure.
        The label is formatted only for a failure, outside the timing."""
        tr = self.tr
        tr.item = len(self.latencies)
        if self.first is None:
            self.cpu0 = _cpu_s()
            self.first = time.perf_counter()
        error = ""
        t0 = time.perf_counter()
        try:
            with tr.span("item"):
                ok = fn(*args)
        except Exception as exc:  # a failing item is counted, not fatal
            ok, error = False, f": {type(exc).__name__}: {exc}"
        self.last = time.perf_counter()
        self.latencies.append(self.last - t0)
        if ok is not True:
            self.failures.append(" ".join(map(str, label)) + error)


# -- wgen-verify ----------------------------------------------------------


def setup_wgen(size: dict, seed: int, tr: Tracer):
    # fixed inputs: the seed is ignored
    with tr.span("pyramid.enumerate"):
        return [(from_shift(*spec), level) for spec, level in size["hosts"]]


def _generator_specs(py, max_level: int):
    smat = py.shift.s
    out = [(D, i, r) for i in range(1, py.nrows + 1) for r in range(1, max_level + 1)]
    for i in range(1, py.nrows):
        out += [(E, i, r) for r in range(smat(i, i + 1) + 1, max_level + 1)]
        out += [(F, i, r) for r in range(smat(i + 1, i) + 1, max_level + 1)]
    return out


def run_wgen(hosts, ps: Pass) -> None:
    tr = ps.tr
    terms = [0]
    invariance_calls = [0]
    rss = {"relations": 0.0, "membership": 0.0}
    families_seen = set()

    def build(gen, py, i, r):
        with tr.span("yangian.generators"):
            x = gen(py, i, r)
        terms[0] += len(x.terms)
        return x.in_U_p()

    def relation(py, rel, kw, got):
        with tr.span("yangian.rel." + rel):
            rep = relation_report(py, rel, **kw)
        got[rel] += 1
        return rep["ok"]

    def member(py, gen, i, r):
        x = gen(py, i, r)
        with tr.span("pbw.invariance"):
            ok = is_W_invariant(py, x)
        invariance_calls[0] += 1
        return ok

    def truncation(py):
        with tr.span("yangian.truncation"):
            return truncation_vanishing(py, py.p[0] + 1)

    for py, level in hosts:
        tag = f"{py.p}/{py.signs}"
        specs = _generator_specs(py, level)
        for gen, i, r in specs:
            ps.run(("gen", tag, gen.__name__, i, r), build, gen, py, i, r)

        expected = Counter(rel for rel, _ in iter_relation_instances(py, level))
        got: Counter = Counter()
        rss0 = _maxrss_mb()
        for rel, kw in iter_relation_instances(py, level):
            ps.run(("rel", tag, rel, kw), relation, py, rel, kw, got)
        rss1 = _maxrss_mb()
        for gen, i, r in specs:
            ps.run(("member", tag, gen.__name__, i, r), member, py, gen, i, r)
        rss2 = _maxrss_mb()
        ps.run(("truncation", tag), truncation, py)
        rss["relations"] += rss1 - rss0
        rss["membership"] += rss2 - rss1

        if got != expected:
            ps.problems.append(f"{tag}: relation counts {dict(got)} != {dict(expected)}")
        families_seen |= set(got)
        ps.counts["relations"] += sum(got.values())
        ps.counts["membership"] += len(specs)

    if len(hosts) > 1 and families_seen != set(RELATION_IDS):
        ps.problems.append(f"relation families missing: {set(RELATION_IDS) - families_seen}")
    ps.extra.update({
        "yangian.generator_terms": terms[0],
        "pbw.invariance_calls": invariance_calls[0],
        "pbw.rss_relations_mb": rss["relations"],
        "pbw.rss_membership_mb": rss["membership"],
    })


# -- pyramid-sweep --------------------------------------------------------


def _chain(py, c: int, top) -> list:
    """The values down column c of a column-connected filling with the given
    top value: equal row parities step down by 1, mixed ones sum to -1."""
    chain = [top]
    rows = py.column_rows(c)
    for upper, lower in zip(rows, rows[1:]):
        v = chain[-1]
        chain.append(v - 1 if py.row_sign(upper) == py.row_sign(lower) else -1 - v)
    return chain


def _pool_chains(py, c: int) -> list[list]:
    """The chains down column c that stay inside the pool."""
    chains = [_chain(py, c, top) for top in CLASSIFY_POOL]
    return [ch for ch in chains if all(v in CLASSIFY_POOL for v in ch)]


def _sweep_cost(py) -> tuple:
    """Sort key that tracks the cost of a sweep item: the number of column
    chain combinations classify walks, then the number of boxes."""
    combos = 1
    for c in range(1, py.ell + 1):
        combos *= len(_pool_chains(py, c))
    return combos, len(py.boxes)


def _multiset(py, rng: random.Random, positive: bool) -> tuple:
    """Row multisets over the pool.  A positive one is read off a random
    column-connected filling, so it has a witness; the others are uniform
    and mostly have none."""
    if not positive:
        return tuple(tuple(sorted(rng.choice(CLASSIFY_POOL) for _ in range(p))) for p in py.p)
    rows = [[] for _ in py.p]
    for c in range(1, py.ell + 1):
        chain = rng.choice(_pool_chains(py, c) or [None])
        if chain is None:
            return _multiset(py, rng, False)
        for r, v in zip(py.column_rows(c), chain):
            rows[r - 1].append(v)
    return tuple(tuple(sorted(r)) for r in rows)


def setup_sweep(size: dict, seed: int, tr: Tracer):
    with tr.span("pyramid.enumerate"):
        pyramids = list(enumerate_pyramids(size["max_boxes"]))
    # The 32 pyramids with ell 7 or 8 take 40% of a full sweep's time, up to
    # 8 s each, so they are left out.  The rest are ordered by cost and
    # every k-th runs, so the sample spans cheap to costly pyramids and its
    # top (the tail) is the large-ell ones.  The pyramids are the same for
    # every seed: a seeded choice of pyramids moved the median item latency
    # by 10% between seeds.  The seed draws the row multisets.
    frame = [py for py in pyramids if py.ell <= size["max_ell"]]
    frame.sort(key=_sweep_cost)
    n = size["sample"]
    chosen = [frame[(2 * s + 1) * len(frame) // (2 * n)] for s in range(n)]
    rng = random.Random(seed)
    items = []
    for py in chosen:
        multisets = [_multiset(py, rng, k % 2 == 0) for k in range(size["multisets"])]
        items.append((py, multisets))
    return items


def closed_form_dims(py) -> tuple[int, int]:
    """Centralizer codimensions from the Jordan blocks of e_pi (the rows):
    d0 = M^2+N^2 - sum over same-parity row pairs of min(p_i, p_j) and
    d1 = 2MN - the same sum over mixed-parity pairs."""
    same = mixed = 0
    for a, pa in zip(py.signs, py.p):
        for b, pb in zip(py.signs, py.p):
            if a == b:
                same += min(pa, pb)
            else:
                mixed += min(pa, pb)
    return py.M ** 2 + py.N ** 2 - same, 2 * py.M * py.N - mixed


def run_sweep(items, ps: Pass) -> None:
    tr = ps.tr
    stats = Counter()

    def one(py, multisets):
        with tr.span("pyramid.good_pair"):
            good = good_pair_check(py)
        with tr.span("gl.centralizer"):
            dims = centralizer_dims(e_pi(py), py.M, py.N)
        with tr.span("tableau.classify"):
            classes = classify(py, CLASSIFY_POOL)
        stats["classes"] += len(classes)
        positives = {tuple(tuple(r) for r in A.rows()) for A in classes}
        ok = good and dims == closed_form_dims(py)
        for rows in multisets:
            A = Tableau.from_rows(py, rows)
            with tr.span("tableau.cc_search"):
                wit = find_cc_representative(A)
            with tr.span("onedim.weight_search"):
                lam = weight_space_search(py, rows)
            stats["cc_calls"] += 1
            if wit is not None:
                stats["cc_found"] += 1
                ok = ok and lam is not None and rows in positives
                ok = ok and is_column_connected(wit) and row_equivalent(wit, A)
            else:
                ok = ok and lam is None
        return ok

    for py, multisets in items:
        ps.run(("sweep", py), one, py, multisets)
    ps.counts["pyramids"] = len(items)
    ps.extra.update({
        "tableau.classes": stats["classes"],
        "tableau.cc_search_calls": stats["cc_calls"],
        "tableau.cc_found_frac": stats["cc_found"] / max(1, stats["cc_calls"]),
    })


# -- module-roundtrip -----------------------------------------------------


def _random_cc(py, rng: random.Random, large: bool) -> Tableau:
    """A column-connected tableau: a seeded top value per column, the rest
    of each column forced by the parity rule."""
    rows = [[] for _ in py.p]
    big = rng.randint(1, py.ell) if large else 0
    for c in range(1, py.ell + 1):
        mag = LARGE_MAG if c == big else SMALL_MAG
        top = Fraction(rng.randint(-mag, mag), rng.choice((1, 1, 2, 3)))
        for r, v in zip(py.column_rows(c), _chain(py, c, top)):
            rows[r - 1].append(v)
    return Tableau.from_rows(py, rows)


def setup_roundtrip(size: dict, seed: int, tr: Tracer):
    with tr.span("pyramid.enumerate"):
        pyramids = list(enumerate_pyramids(size["max_boxes"])) + [from_shift(*FLAGSHIP)]
    rng = random.Random(seed)
    items = []
    for py in pyramids:
        n = size["per_pyramid"]
        symbolic = set(rng.sample(range(n), size["symbolic_per_pyramid"]))
        for k in range(n):
            large = rng.random() < size["large_frac"]
            A = _random_cc(py, rng, large)
            items.append((A, large, k in symbolic))
    return items


def run_roundtrip(items, ps: Pass) -> None:
    tr = ps.tr

    def one(A, large, symbolic):
        py = A.pyramid
        with tr.span("onedim.eigenvalues"):
            data = eigenvalues_of(A)
        with tr.span("onedim.solve_large" if large else "onedim.solve"):
            B = tableau_from_eigenvalues(py, data)
        with tr.span("tableau.row_equiv"):
            same = row_equivalent(A, B)
        with tr.span("onedim.eigenvalues"):
            back = eigenvalues_of(B)
        ok = same and back == data and back.reduced == data.reduced
        with tr.span("onedim.quotient_check"):
            ok = quotient_relation_check(data) and ok
        if symbolic:
            with tr.span("onedim.symbolic_check"):
                ok = symbolic_module_check(A) and ok
        return ok

    for A, large, symbolic in items:
        ps.run(("roundtrip", A), one, A, large, symbolic)
    ps.counts["tableaux"] = len(items)
    ps.counts["large"] = sum(1 for _, large, _ in items if large)
    ps.counts["symbolic"] = sum(1 for _, _, s in items if s)
    ps.counts["pyramids"] = len({A.pyramid for A, _, _ in items})


def layer_metrics(self_times: dict, extra: dict) -> dict:
    """Per-layer metrics of a traced pass, named as in BENCHMARK.json."""
    out = {name + "_s": t for name, t in self_times.items() if name != "item"}
    out["yangian.relations_s"] = sum(out.get(f"yangian.rel.{rel}_s", 0.0) for rel in RELATION_IDS)
    out["onedim.solve_s"] = out.get("onedim.solve_s", 0.0) + out.get("onedim.solve_large_s", 0.0)
    out.update(extra)
    return out


WORKLOADS = {
    "wgen-verify": (setup_wgen, run_wgen),
    "pyramid-sweep": (setup_sweep, run_sweep),
    "module-roundtrip": (setup_roundtrip, run_roundtrip),
}


def main(argv: list[str]) -> int:
    workload, seed, size_name, mode = argv[0], int(argv[1]), argv[2], argv[3]
    trace_file = argv[4] if len(argv) > 4 else None
    setup_fn, run_fn = WORKLOADS[workload]
    trace = mode == "trace"
    tr = Tracer(trace)
    size = SIZES[workload][size_name]

    t0 = time.perf_counter()
    inputs = setup_fn(size, seed, tr)
    t1 = time.perf_counter()
    sys.stdout.write("READY\n")
    sys.stdout.flush()
    if mode == "setup":
        return 0

    ps = Pass(tr)
    run_fn(inputs, ps)
    cpu_s = _cpu_s() - ps.cpu0
    layers = {}
    if trace:
        layers = layer_metrics(tr.self_times(), ps.extra)
        layers["cli.import_s"] = _t_imported - _t_start
        if trace_file:
            tr.write(trace_file)
    result = {
        "wall_s": ps.last - ps.first,
        "cpu_s": cpu_s,
        "peak_rss_mb": _maxrss_mb(),
        "latencies": ps.latencies,
        "failures": ps.failures,
        "problems": ps.problems,
        "counts": dict(ps.counts),
        "layers": layers,
    }
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
