"""Benchmark runner: runs one workload for a fixed time, one fresh process
per operation, checks every output and prints the metrics.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from anywhere inside a checkout of the repository: the program is
imported from the checkout's src/ directory, nothing is installed.  The
runner starts one operation process at a time (bench/op.py) and waits for
it, so at most two processes are alive.  A fresh process per operation
keeps the per-Algebra memos and the algebra registry from carrying warm
state from one sample into the next, and it is how a CLI user meets the
code.

--trace 0 reports the end-to-end metrics.  --trace 1 alternates untraced
and traced operations and reports the per-layer metrics of the traced
ones, plus the tracing overhead.  The last line of stdout is one JSON
object: correct, attempted, failed, metrics.  The line before it holds
diagnostics (failure ratio, tail percentile and sample count, the
machine-speed probe).  Full per-operation records go to bench/out/.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"

# A run must end within 180 s; an operation still running this long after
# the run started is killed and counted as failed.
RUN_DEADLINE_S = 170.0

# the per-layer metrics --trace 1 reports, with their units
PER_LAYER = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"] \
    if (ROOT / "BENCHMARK.json").is_file() else []


def probe_s() -> float:
    """Wall time of a fixed pure-Python loop: a machine-speed diagnostic."""
    start = time.perf_counter()
    acc = 0
    for i in range(2_000_000):
        acc = (acc + i * i) % 1_000_003
    return time.perf_counter() - start


def child_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env.pop("EXTBOUND_CACHE_DIR", None)  # the disk cache is off by default
    return env


def run_op(spec: dict, spans_path: Path | None, timeout: float) -> dict:
    """Run one operation process; returns its record (with 'error' on failure)."""
    argv = [sys.executable, str(BENCH_DIR / "op.py"), json.dumps(spec)]
    if spans_path is not None:
        argv.append(str(spans_path))
    spawned = time.monotonic()
    proc = subprocess.Popen(argv, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True)
    try:
        out, err = proc.communicate(timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        return {"traced": spans_path is not None, "error": f"timed out after {timeout:.0f} s"}
    ended = time.monotonic()
    rec = {"traced": spans_path is not None, "wall_s": ended - spawned}
    if proc.returncode != 0:
        rec["error"] = f"exit code {proc.returncode}: {err.strip()[-2000:]}"
        return rec
    try:
        res = json.loads(out.strip().splitlines()[-1])
    except (ValueError, IndexError):
        rec["error"] = f"no result line: {out[-500:]!r} {err[-1500:]}"
        return rec
    rec.update(setup_s=res["t_ready"] - spawned, op_s=res["op_s"],
               peak_rss_kb=res["peak_rss_kb"], output=res["output"])
    if "layers" in res:
        rec["layers"] = res["layers"]
    problem = workloads.check_output(spec, res["output"])
    if problem is not None:
        rec["error"] = f"wrong output: {problem}"
    return rec


def tail(values: list[float]) -> tuple[float, float, int]:
    """(value, percentile, samples beyond it) of the highest percentile that
    has at least ten samples beyond it.  A tail is never taken below the
    median: with twenty samples or fewer the median is reported instead."""
    xs = sorted(values)
    n = len(xs)
    if n > 20:
        return xs[n - 11], 100.0 * (n - 10) / n, 10
    return statistics.median(xs), 50.0, n // 2


def median_or_zero(values):
    return statistics.median(values) if values else 0.0


# per-layer metrics read from a tracer counter of another name
ALIASES = {
    "exactla.matrix.new": "exactla.matrix.new.calls",
    "algebra.representation.checks": "algebra.representation.calls",
    "modules.modulemap.checks": "modules.modulemap.calls",
    "homology.ext_table.computed": "homology.ext_complex.calls",
}
# per-layer ratios: (numerator counter, base counter); 0 when the base is 0
RATIOS = {
    "modules.decompose.determined_ratio": ("modules.decompose.determined",
                                           "modules.decompose.calls"),
    "homology.vanishing_onset.certified_ratio": ("homology.vanishing_onset.certified",
                                                 "homology.vanishing_onset.calls"),
}


def layer_metrics(layers: list[dict], overhead_s: float) -> dict:
    """Per-layer metrics: the median over the traced ops of each counter."""
    def med(key):
        return median_or_zero([t.get(key, 0) for t in layers])

    def ratio(num, base):
        return med(num) / med(base) if med(base) else 0.0

    out = {}
    for m in PER_LAYER:
        name = m["name"]
        if name == "trace.overhead_s":
            value = overhead_s
        elif name == "homology.ext_table.hit_ratio":
            value = (1.0 - ratio("homology.ext_complex.calls", "homology.ext_table.calls")
                     if med("homology.ext_table.calls") else 0.0)
        elif name in RATIOS:
            value = ratio(*RATIOS[name])
        else:
            value = med(ALIASES.get(name, name))
        out[name] = {"value": value, "unit": m["unit"]}
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "extbound" / "__init__.py").is_file():
        print(f"error: no extbound sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.trace and not PER_LAYER:
        print("error: BENCHMARK.json with per_layer metrics not found", file=sys.stderr)
        return 2
    started = time.monotonic()
    OUT_DIR.mkdir(exist_ok=True)

    # compile the sources once, untimed, so that no sample pays for it
    subprocess.run([sys.executable, "-c", "import extbound, extbound.cli"],
                   cwd=ROOT, env=child_env(), check=True)
    probe_start = probe_s()

    records: list[dict] = []
    run_start = time.monotonic()
    min_ops = 2 if args.trace else 1
    while True:
        index = len(records)
        traced = bool(args.trace) and index % 2 == 1
        # start an op only if one like it, at the median wall time of those
        # run so far, ends within the measured window
        like = [r["wall_s"] for r in records if r["traced"] == traced and "wall_s" in r]
        expected = statistics.median(like) if like else 0.0
        if index >= min_ops and time.monotonic() - run_start + expected > args.seconds:
            break
        spec = workloads.make_spec(args.workload, args.seed, index)
        spans = OUT_DIR / f"spans-{args.workload}.json" if traced else None
        rec = run_op(spec, spans, RUN_DEADLINE_S - (time.monotonic() - started))
        rec["spec"] = spec
        records.append(rec)
        if rec.get("error", "").startswith("timed out"):
            break
    run_wall = time.monotonic() - run_start
    probe_end = probe_s()

    # every output of a run must agree, traced or not, whatever the rotation
    reference = next((workloads.canonical(r["output"]) for r in records
                      if "error" not in r), None)
    for r in records:
        if "error" not in r and workloads.canonical(r["output"]) != reference:
            r["error"] = "output differs from the first operation of the run"

    attempted = len(records)
    failed = sum(1 for r in records if "error" in r)
    plain = [r for r in records if not r["traced"] and "error" not in r]
    traced_ok = [r for r in records if r["traced"] and "error" not in r]
    op_times = [r["op_s"] for r in plain]
    tail_value, tail_pct, tail_beyond = tail(op_times) if op_times else (0.0, 0.0, 0)

    if args.trace:
        overhead = (median_or_zero([r["op_s"] for r in traced_ok])
                    - median_or_zero(op_times))
        metrics = layer_metrics([r["layers"] for r in traced_ok], overhead)
    else:
        metrics = {
            "op_s.p50": {"value": median_or_zero(op_times), "unit": "s"},
            "op_s.tail": {"value": tail_value, "unit": "s"},
            "ops_per_s": {"value": len(plain) / run_wall, "unit": "1/s"},
            "setup_s": {"value": median_or_zero([r["setup_s"] for r in plain]), "unit": "s"},
            "peak_rss_mb": {"value": median_or_zero([r["peak_rss_kb"] for r in plain]) / 1024,
                            "unit": "MiB"},
        }
    diagnostics = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "failed_ratio": failed / attempted,
        "samples": len(op_times), "traced_samples": len(traced_ok),
        "op_s.tail.percentile": tail_pct, "op_s.tail.beyond": tail_beyond,
        "run_wall_s": run_wall,
        "probe_s": {"start": probe_start, "end": probe_end},
        "errors": [r["error"] for r in records if "error" in r][:5],
    }
    with open(OUT_DIR / f"run-{args.workload}-seed{args.seed}-trace{args.trace}.json", "w") as fh:
        json.dump({"diagnostics": diagnostics, "metrics": metrics,
                   "records": [{k: v for k, v in r.items() if k != "output"} for r in records]},
                  fh, indent=1, sort_keys=True)
    print(json.dumps({"diagnostics": diagnostics}))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
