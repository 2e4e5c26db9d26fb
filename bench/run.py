"""superw benchmark driver.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs passes of one workload (bench/workloads.py), each in a fresh
interpreter, back to back until S seconds are used (at least one pass).
Every pass checks its own outputs.  With --trace 0 it reports the
end-to-end metrics; with --trace 1 it alternates untraced and traced
passes and reports the per-layer metrics, with the tracing overhead.

Human-readable lines come first: the environment record, then one line
per metric with its unit.  The last stdout line is one JSON object
{"correct", "attempted", "failed", "metrics"}.  The same record, with the
environment, is written to bench/results/, and a traced run also writes
its spans there.  Run it from any directory; it finds the sources in
../src relative to this file and exits 2 if they are not there.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import select
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
RESULTS = BENCH / "results"
WORKER = BENCH / "workloads.py"

SETUP_SAMPLES = 9  # set-up is short and noisy: time it this often per run
HARD_LIMIT_S = 170.0  # a run must end within 180 s


class BenchError(Exception):
    """A pass could not run or did not finish; no result is printed."""


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = "0"
    return env


def run_pass(workload: str, seed: int, size: str, mode: str, budget: float,
             trace_file: Path | None = None) -> dict:
    """Spawn one pass and wait for it.  Set-up time is measured from the
    spawn to the READY line, which covers interpreter start, the import
    and building the inputs."""
    cmd = [sys.executable, str(WORKER), workload, str(seed), size, mode]
    if trace_file is not None:
        cmd.append(str(trace_file))
    # stderr goes to a file, so a chatty pass cannot fill a pipe and stall
    with tempfile.TemporaryFile("w+") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=ROOT, env=_child_env(), stdout=subprocess.PIPE,
                                stderr=err, text=True)
        try:
            if not select.select([proc.stdout], [], [], budget)[0]:
                raise subprocess.TimeoutExpired(cmd, budget)
            first = proc.stdout.readline()
            setup_s = time.perf_counter() - t0
            out, _ = proc.communicate(timeout=max(1.0, budget - (time.perf_counter() - t0)))
        except subprocess.TimeoutExpired:
            raise BenchError(f"{workload} pass exceeded {budget:.0f} s") from None
        finally:
            if proc.poll() is None:
                proc.kill()
            proc.wait()
        err.seek(0)
        if first.strip() != "READY" or proc.returncode != 0:
            raise BenchError(f"{workload} pass failed (exit {proc.returncode}): "
                             f"{err.read().strip()[-2000:]}")
    doc = {"setup_s": setup_s, "elapsed_s": time.perf_counter() - t0}
    if mode != "setup":
        doc.update(json.loads(out.strip().splitlines()[-1]))
    return doc


def tail(latencies: list[float]) -> tuple[float, float]:
    """The highest percentile with at least ten items beyond it, as
    (percentile, value)."""
    xs = sorted(latencies)
    n = len(xs)
    if n < 11:
        raise BenchError(f"{n} items are too few for a tail percentile")
    return 100.0 * (n - 10) / n, xs[n - 11]


def end_to_end(passes: list[dict], setups: list[float]) -> tuple[dict, str]:
    med = statistics.median
    walls = [p["wall_s"] for p in passes]
    items = len(passes[0]["latencies"])
    tails = [tail(p["latencies"]) for p in passes]
    values = {
        "setup_s": med(setups),
        "wall_s": med(walls),
        "items_per_s": items / med(walls),
        "cpu_s": med(p["cpu_s"] for p in passes),
        "peak_rss_mb": med(p["peak_rss_mb"] for p in passes),
        "item_p50_ms": 1e3 * med(med(p["latencies"]) for p in passes),
        "item_tail_ms": 1e3 * med(v for _, v in tails),
    }
    return values, f"p{tails[0][0]:.2f} ({items} items, 10 beyond)"


def per_layer(names: list[str], traced: list[dict], untraced: list[dict]) -> dict:
    """Medians over the traced passes; a layer the workload does not reach
    reads 0."""
    med = statistics.median
    values = {name: med(p["layers"].get(name, 0.0) for p in traced) for name in names}
    values["trace_overhead_frac"] = (
        med(p["wall_s"] for p in traced) / med(p["wall_s"] for p in untraced) - 1.0
    )
    return values


def _commit() -> str | None:
    """HEAD of the checkout, read from .git without running git (which
    would search parent directories)."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.exists():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return None


def _source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        h.update(path.relative_to(SRC).as_posix().encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def environment(args, passes: list[dict]) -> dict:
    counts = passes[0].get("counts", {})
    return {
        "workload": args.workload,
        "seed": args.seed,
        "size": args.size,
        "trace": args.trace,
        "commit": _commit(),
        "source_sha256": _source_digest(),
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "items_per_pass": len(passes[0]["latencies"]),
        "counts": counts,
        "passes": len(passes),
        "load": "closed loop, one client, no workers",
    }


def measure(args, spec: dict) -> dict:
    start = time.perf_counter()

    def budget() -> float:
        left = HARD_LIMIT_S - (time.perf_counter() - start)
        if left <= 1.0:
            raise BenchError("run exceeded its time limit")
        return left

    # The first set-up compiles bytecode and warms the file cache, so it is
    # not counted.  Set-up is timed before the passes, so that the whole run
    # stays within --seconds.
    run_pass(args.workload, args.seed, args.size, "setup", budget())
    t_measure = time.perf_counter()
    setups = [] if args.trace else [
        run_pass(args.workload, args.seed, args.size, "setup", budget())["setup_s"]
        for _ in range(SETUP_SAMPLES)
    ]
    untraced: list[dict] = []
    traced: list[dict] = []
    RESULTS.mkdir(exist_ok=True)
    trace_file = RESULTS / f"trace-{args.workload}-seed{args.seed}.jsonl"

    while True:
        want_traced = args.trace and len(traced) < len(untraced)
        if want_traced:
            traced.append(run_pass(args.workload, args.seed, args.size, "trace", budget(),
                                   trace_file))
        else:
            untraced.append(run_pass(args.workload, args.seed, args.size, "run", budget()))
        if args.trace and not traced:
            continue
        longest = max(p["elapsed_s"] for p in untraced + traced)
        if time.perf_counter() - t_measure + longest > args.seconds:
            break

    all_passes = untraced + traced
    failures = [f for p in all_passes for f in p["failures"]]
    problems = [f for p in all_passes for f in p["problems"]]
    attempted = sum(len(p["latencies"]) for p in all_passes)
    if args.trace:
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
        metrics, tail_note = per_layer(list(units), traced, untraced), None
    else:
        units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
        metrics, tail_note = end_to_end(untraced, setups)
    return {
        "environment": environment(args, all_passes),
        "correct": not failures and not problems,
        "attempted": attempted,
        "failed": len(failures),
        "failed_frac": len(failures) / attempted,
        "failures": (failures + problems)[:50],
        "pass_wall_s": [p["wall_s"] for p in untraced],
        "traced_pass_wall_s": [p["wall_s"] for p in traced],
        "tail": tail_note,
        "metrics": {n: {"value": v, "unit": units[n]} for n, v in metrics.items()},
    }


def report(res: dict) -> None:
    env = res["environment"]
    print("environment " + json.dumps(env, sort_keys=True))
    for name, m in res["metrics"].items():
        note = f"  [{res['tail']}]" if name == "item_tail_ms" else ""
        print(f"{name} {m['value']:.6g} {m['unit']}{note}")
    print(f"failed_frac {res['failed_frac']:.6g} fraction  "
          f"[{res['failed']} of {res['attempted']} items]")
    for f in res["failures"]:
        print("FAILED " + f)


def main(argv=None) -> int:
    if not (ROOT / "BENCHMARK.json").is_file() or not (SRC / "superw" / "__init__.py").is_file():
        print(f"BENCHMARK.json or the superw sources are missing under {ROOT}", file=sys.stderr)
        return 2
    # workload and metric names and units
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=[w["name"] for w in spec["workloads"]])
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", type=int, default=40)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "tiny"), default="full",
                    help="tiny is for the smoke tests")
    args = ap.parse_args(argv)
    try:
        res = measure(args, spec)
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    report(res)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (RESULTS / name).write_text(json.dumps(res, indent=1) + "\n")
    print(json.dumps({k: res[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
