#!/usr/bin/env python3
"""Run one workload N times, each in a fresh process with its own seed,
and report how steady every end-to-end metric is.

    python3 perfbench/steadiness.py --workload whatif-300 --runs 10 --seconds 15

For each metric: median, first and third quartile (as
``statistics.quantiles(values, n=4)`` gives them), the quartile spread
as a share of the median, and the max/min spread.  When
``BENCHMARK.json`` names a bound for the metric, the spread is compared
with a third of it.  For ``whatif-300`` the trend of per-op time
against op index is printed too: the bound cache grows across probes,
so later probes may get cheaper.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_once(workload: str, seed: int, seconds: float) -> dict:
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=600, check=False,
    )
    if proc.returncode != 0:
        raise SystemExit(f"seed {seed}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    record = json.loads(
        (HERE / "out" / f"{workload}-seed{seed}-trace0.json").read_text()
    )
    return {
        "result": result,
        "op_times": record["op_times_s"],
        "wall_s": time.perf_counter() - start,
    }


def spread_table(runs: list, bounds: dict) -> list:
    lines = [f"{'metric':24s} {'median':>12s} {'q1':>12s} {'q3':>12s} "
             f"{'iqr/med':>8s} {'max/min':>8s}  vs bound/3"]
    names = list(runs[0]["result"]["metrics"])
    for name in names:
        values = [r["result"]["metrics"][name]["value"] for r in runs]
        q1, median, q3 = statistics.quantiles(values, n=4)
        iqr = (q3 - q1) / median if median else float("nan")
        ratio = max(values) / min(values) if min(values) else float("nan")
        verdict = ""
        if name in bounds:
            verdict = f"{'ok' if iqr < bounds[name] / 3 else 'WIDE'} (bound {bounds[name]})"
        lines.append(f"{name:24s} {median:12.6g} {q1:12.6g} {q3:12.6g} "
                     f"{iqr:8.2%} {ratio:8.3f}  {verdict}")
    return lines


def trend_lines(runs: list) -> list:
    """Median per-op time at each op index, and its least-squares slope."""
    depth = min(len(r["op_times"]) for r in runs)
    medians = [statistics.median(r["op_times"][i] for r in runs) for i in range(depth)]
    if depth < 2:
        return []
    xs = range(depth)
    mean_x, mean_y = statistics.fmean(xs), statistics.fmean(medians)
    slope = sum((x - mean_x) * (y - mean_y) for x, y in zip(xs, medians)) / sum(
        (x - mean_x) ** 2 for x in xs
    )
    lines = ["per-op time by op index (median over runs):"]
    lines += [f"  op {i:3d}: {t:.4f} s" for i, t in enumerate(medians)]
    lines.append(f"  slope {slope:+.5f} s/op ({slope / mean_y:+.2%} of the mean per op)")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seed0", type=int, default=0, help="first seed; runs use seed0.. seed0+runs-1")
    parser.add_argument("--seconds", type=float, default=None,
                        help="default: run_seconds from BENCHMARK.json")
    args = parser.parse_args(argv)
    if args.runs < 2:
        parser.error("--runs must be at least 2")

    bench_path = ROOT / "BENCHMARK.json"
    bench = json.loads(bench_path.read_text()) if bench_path.exists() else {}
    seconds = args.seconds or bench.get("run_seconds", 15)
    bounds = {m["name"]: m["bound"] for m in bench.get("end_to_end", [])}

    runs = []
    for seed in range(args.seed0, args.seed0 + args.runs):
        run = run_once(args.workload, seed, seconds)
        ok = run["result"]["correct"]
        print(f"seed {seed}: correct={ok} ops={len(run['op_times'])} "
              f"wall={run['wall_s']:.1f}s", flush=True)
        runs.append(run)

    print(f"\n{args.workload}: {args.runs} runs x {seconds} s")
    for line in spread_table(runs, bounds):
        print(line)
    if args.workload == "whatif-300":
        for line in trend_lines(runs):
            print(line)
    return 0 if all(r["result"]["correct"] for r in runs) else 1


if __name__ == "__main__":
    sys.exit(main())
