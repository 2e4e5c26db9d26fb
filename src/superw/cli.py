"""Batch command-line front end.

Verbs: pyramid (derived data + good-pair verdict), wgen-verify (relation,
membership, and truncation suites), module-eval (eigenvalues + symbolic
check of a tableau), classify (one-dimensional classes over a scalar
pool), solve (inverse eigenvalue problem), dims (centralizer codimensions
and minimal dimension).

Exit codes: 0 ok, 1 usage, 2 invalid input, 3 verification failure,
4 eigenvalue data that does not split over the rationals (the message
gives the exact factor left over).  Errors go to stderr as one JSON
object per line; --json switches stdout to a single JSON document.
"""

from __future__ import annotations

import argparse
import json
import sys

from .gl import centralizer_dims
from .onedim import (
    NonSplitError,
    eigenvalues_of,
    symbolic_module_check,
    tableau_from_eigenvalues,
)
from .pbw import is_W_invariant
from .pyramid import Pyramid, ShiftMatrix, e_pi, good_pair_check
from .scalars import format_scalar, parse_scalar
from .tableau import Tableau, classify, is_column_connected
from .yangian import (
    D,
    E,
    F,
    _norm_rel,
    iter_relation_instances,
    relation_report,
    truncation_vanishing,
)

OK = 0
EXIT_USAGE = 1
EXIT_INVALID = 2
EXIT_VERIFY = 3
EXIT_NONSPLIT = 4


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would exit(2); usage errors are 1 here
        raise UsageError(message)


def _load_json(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise ValueError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path} is not valid JSON: {exc}") from exc


def _pyramid_from_file(path: str) -> Pyramid:
    doc = _load_json(path)
    if not isinstance(doc, dict) or not {"shift", "ell", "signs"} <= set(doc):
        raise ValueError(f"{path} must hold an object with shift, ell, signs")
    return Pyramid.from_json(doc)


def _tableau_from_file(path: str) -> Tableau:
    doc = _load_json(path)
    if not isinstance(doc, dict) or not {"pyramid", "rows"} <= set(doc):
        raise ValueError(f"{path} must hold an object with pyramid, rows")
    return Tableau.from_json(doc)


def _emit(args, lines: list[str], doc: dict) -> None:
    if args.json:
        sys.stdout.write(json.dumps(doc, indent=2) + "\n")
    else:
        for line in lines:
            sys.stdout.write(line + "\n")


def _verdict(ok: bool) -> str:
    return "ok" if ok else "FAIL"


# -- pyramid ------------------------------------------------------------


def cmd_pyramid(args) -> int:
    rows = _load_json(args.shift)
    if not isinstance(rows, list):
        raise ValueError("--shift file must hold a JSON list of rows")
    py = Pyramid(ShiftMatrix.from_rows(rows), args.ell, args.signs)
    ep = e_pi(py)
    d0, d1 = centralizer_dims(ep, py.M, py.N)
    good = good_pair_check(py)
    h_diag = [-py.col_x(b) for b in py.boxes]

    lines = [
        f"shift={py.shift}",
        f"ell={py.ell} signs={py.signs}",
        "p=" + ",".join(str(v) for v in py.p),
        f"M={py.M} N={py.N} m={py.m} n={py.n} h={py.h_shift}",
        "q_check=" + ",".join(str(v) for v in py.q_check),
        "row_hat=" + ",".join(str(v) for v in py.row_hat),
        "col_x=" + ",".join(str(py.col_x_of_col(c)) for c in range(1, py.ell + 1)),
    ]
    boxes_doc = []
    for b in py.boxes:
        r, c = py.row(b), py.col(b)
        lines.append(
            f"box {b} row={r} col={c} col_x={py.col_x(b)} row_check={py.row_check(b)}"
        )
        boxes_doc.append(
            {
                "label": str(b),
                "row": r,
                "col": c,
                "col_x": py.col_x(b),
                "row_check": py.row_check(b),
            }
        )
    lines += [
        f"e_pi={ep}",
        "h_pi=diag(" + ",".join(str(v) for v in h_diag) + ")",
        f"d0={d0} d1={d1}",
        f"good_pair={_verdict(good)}",
    ]
    doc = {
        "shift": [list(r) for r in py.shift.entries],
        "ell": py.ell,
        "signs": py.signs,
        "p": list(py.p),
        "M": py.M,
        "N": py.N,
        "m": py.m,
        "n": py.n,
        "h": py.h_shift,
        "q_check": list(py.q_check),
        "row_hat": list(py.row_hat),
        "col_x": [py.col_x_of_col(c) for c in range(1, py.ell + 1)],
        "boxes": boxes_doc,
        "e_pi": str(ep),
        "h_pi": h_diag,
        "d0": d0,
        "d1": d1,
        "good_pair": good,
    }
    _emit(args, lines, doc)
    return OK if good else EXIT_VERIFY


# -- wgen-verify --------------------------------------------------------


def _relation_line(report: dict) -> str:
    idx = report["indices"]
    indices = ",".join(str(idx[k]) for k in ("i", "j") if k in idx) or "-"
    levels = ",".join(str(idx[k]) for k in ("r", "s", "t") if k in idx) or "-"
    line = f"rel={report['rel']} indices={indices} levels={levels} {_verdict(report['ok'])}"
    for name in sorted(report["variants"]):
        line += f" {name}={_verdict(report['variants'][name])}"
    return line


def cmd_wgen_verify(args) -> int:
    py = _pyramid_from_file(args.pyramid)
    if args.max_level < 1:
        raise ValueError("--max-level must be at least 1")
    suites = [s.strip() for s in args.suites.split(",") if s.strip()]
    if not suites:
        raise ValueError("--suites must name at least one suite")
    unknown = set(suites) - {"relations", "membership", "truncation"}
    if unknown:
        raise ValueError(f"unknown suites: {sorted(unknown)}")
    wanted = None
    if args.relations is not None:
        wanted = {_norm_rel(r) for r in args.relations.split(",") if r.strip()}
        if not wanted:
            raise ValueError("--relations must name at least one relation id")
        if "relations" not in suites:
            raise ValueError("--relations needs the relations suite, which --suites leaves out")

    lines: list[str] = []
    doc: dict = {"pyramid": py.to_json(), "max_level": args.max_level}
    all_ok = True

    if "relations" in suites:
        rel_docs = []
        for rel, kw in iter_relation_instances(py, args.max_level):
            if wanted is not None and rel not in wanted:
                continue
            report = relation_report(py, rel, **kw)
            lines.append(_relation_line(report))
            rel_docs.append(report)
            all_ok = all_ok and report["ok"]
        doc["relations"] = rel_docs

    if "membership" in suites:
        mem_docs = []
        smat = py.shift.s
        checks = []
        for i in range(1, py.nrows + 1):
            for r in range(1, args.max_level + 1):
                checks.append(("D", i, r, D(py, i, r)))
        for i in range(1, py.nrows):
            for r in range(smat(i, i + 1) + 1, args.max_level + 1):
                checks.append(("E", i, r, E(py, i, r)))
            for r in range(smat(i + 1, i) + 1, args.max_level + 1):
                checks.append(("F", i, r, F(py, i, r)))
        for fam, i, r, w in checks:
            ok = is_W_invariant(py, w)
            lines.append(f"member={fam} i={i} r={r} {_verdict(ok)}")
            mem_docs.append({"family": fam, "i": i, "r": r, "ok": ok})
            all_ok = all_ok and ok
        doc["membership"] = mem_docs

    if "truncation" in suites:
        r = py.p[0] + 1
        ok = truncation_vanishing(py, r)
        lines.append(f"truncation r={r} {_verdict(ok)}")
        doc["truncation"] = [{"r": r, "ok": ok}]
        all_ok = all_ok and ok

    doc["ok"] = all_ok
    lines.append(f"overall={_verdict(all_ok)}")
    _emit(args, lines, doc)
    return OK if all_ok else EXIT_VERIFY


# -- module-eval --------------------------------------------------------


def cmd_module_eval(args) -> int:
    A = _tableau_from_file(args.tableau)
    cc = is_column_connected(A)
    data = eigenvalues_of(A)
    lines = [f"column_connected={str(cc).lower()}"]
    for i, row in enumerate(data.full, start=1):
        lines.append(f"a[{i}]=" + ",".join(format_scalar(v) for v in row))
    symbolic = None
    if cc:
        symbolic = symbolic_module_check(A)
        lines.append(f"symbolic={_verdict(symbolic)}")
    else:
        lines.append("symbolic=skipped")
    doc = {
        "column_connected": cc,
        "eigenvalues": data.to_json(),
        "symbolic": symbolic,
    }
    _emit(args, lines, doc)
    return OK if cc and symbolic else EXIT_VERIFY


# -- classify -----------------------------------------------------------


def cmd_classify(args) -> int:
    py = _pyramid_from_file(args.pyramid)
    pool = [parse_scalar(v.strip()) for v in args.pool.split(",") if v.strip()]
    if not pool:
        raise ValueError("--pool must list at least one scalar")
    classes = classify(py, pool)
    lines = [f"classes={len(classes)}"]
    class_docs = []
    for k, A in enumerate(classes, start=1):
        rows = A.rows()
        lines.append(
            f"class[{k}]=" + ";".join(",".join(format_scalar(v) for v in row) for row in rows)
        )
        class_docs.append([[format_scalar(v) for v in row] for row in rows])
    doc = {
        "pyramid": py.to_json(),
        "pool": [format_scalar(v) for v in pool],
        "count": len(classes),
        "classes": class_docs,
    }
    _emit(args, lines, doc)
    return OK


# -- solve --------------------------------------------------------------


def cmd_solve(args) -> int:
    py = _pyramid_from_file(args.pyramid)
    doc_in = _load_json(args.eigenvalues)
    if not isinstance(doc_in, dict) or "a" not in doc_in:
        raise ValueError("--eigenvalues file must hold an object with key a")
    reduced = [[parse_scalar(v) for v in row] for row in doc_in["a"]]
    A = tableau_from_eigenvalues(py, reduced)
    cc = is_column_connected(A)
    round_trip = [list(r) for r in eigenvalues_of(A).reduced] == reduced

    lines = []
    for i, row in enumerate(A.rows(), start=1):
        lines.append(f"row[{i}]=" + ",".join(format_scalar(v) for v in row))
    lines.append(f"column_connected={str(cc).lower()}")
    lines.append(f"round_trip={_verdict(round_trip)}")
    doc = {
        "pyramid": py.to_json(),
        "rows": [[format_scalar(v) for v in row] for row in A.rows()],
        "column_connected": cc,
        "round_trip": round_trip,
    }
    _emit(args, lines, doc)
    return OK if cc and round_trip else EXIT_VERIFY


# -- dims ---------------------------------------------------------------


def cmd_dims(args) -> int:
    py = _pyramid_from_file(args.pyramid)
    if args.prime < 2:
        raise ValueError("--prime must be at least 2")
    d0, d1 = centralizer_dims(e_pi(py), py.M, py.N)
    parity_ok = d0 % 2 == 0 and d1 % 2 == 0
    lines = [f"d0={d0} d1={d1}"]
    min_dim = None
    if parity_ok:
        min_dim = args.prime ** (d0 // 2) * 2 ** (d1 // 2)
        lines.append(f"min_dim={args.prime}^{d0 // 2}*2^{d1 // 2}={min_dim}")
    else:
        lines.append("min_dim=FAIL (odd codimension)")
    doc = {
        "pyramid": py.to_json(),
        "prime": args.prime,
        "d0": d0,
        "d1": d1,
        "min_dim": min_dim,
    }
    _emit(args, lines, doc)
    return OK if parity_ok else EXIT_VERIFY


# -- wiring -------------------------------------------------------------


def build_parser() -> _Parser:
    parser = _Parser(prog="superw", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="verb", metavar="verb")

    def add(name, fn, **kwargs):
        p = sub.add_parser(name, **kwargs)
        p.add_argument("--json", action="store_true", help="emit one JSON document")
        p.set_defaults(fn=fn)
        return p

    p = add("pyramid", cmd_pyramid, help="derive and verify pyramid data")
    p.add_argument("--shift", required=True, help="JSON file with the shift matrix rows")
    p.add_argument("--ell", required=True, type=int, help="level (number of columns)")
    p.add_argument("--signs", required=True, help="row parity word over 0/1")

    p = add("wgen-verify", cmd_wgen_verify, help="run the generator verification suites")
    p.add_argument("--pyramid", required=True, help="JSON file {shift, ell, signs}")
    p.add_argument("--max-level", type=int, default=3, help="bound on every free level")
    p.add_argument("--relations", default=None, help="comma list of relation ids to run")
    p.add_argument(
        "--suites",
        default="relations,membership,truncation",
        help="comma subset of relations,membership,truncation",
    )

    p = add("module-eval", cmd_module_eval, help="evaluate a tableau's module data")
    p.add_argument("--tableau", required=True, help="JSON file {pyramid, rows}")

    p = add("classify", cmd_classify, help="list one-dimensional classes over a pool")
    p.add_argument("--pyramid", required=True, help="JSON file {shift, ell, signs}")
    p.add_argument("--pool", required=True, help="comma list of exact scalars")

    p = add("solve", cmd_solve, help="solve the inverse eigenvalue problem")
    p.add_argument("--pyramid", required=True, help="JSON file {shift, ell, signs}")
    p.add_argument("--eigenvalues", required=True, help="JSON file {a: [[...]]} (reduced)")

    p = add("dims", cmd_dims, help="centralizer codimensions and minimal dimension")
    p.add_argument("--pyramid", required=True, help="JSON file {shift, ell, signs}")
    p.add_argument("--prime", required=True, type=int, help="characteristic p")

    return parser


def _error(kind: str, message: str) -> None:
    sys.stderr.write(json.dumps({"error": kind, "message": message}) + "\n")


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if not getattr(args, "fn", None):
            raise UsageError("a verb is required (see --help)")
        return args.fn(args)
    except UsageError as exc:
        _error("usage", str(exc))
        return EXIT_USAGE
    except NonSplitError as exc:
        _error("non_split", str(exc))
        return EXIT_NONSPLIT
    except (ValueError, KeyError, TypeError) as exc:
        _error("invalid_input", str(exc))
        return EXIT_INVALID


if __name__ == "__main__":
    sys.exit(main())
