#!/usr/bin/env python3
"""Run one benchmark workload in this process and print its metrics.

    python3 perfbench/run.py --workload industrial-1000 --seed 0 --seconds 20 --trace 0

Run from the repository root.  The run sets up, runs one discarded
warm-up op, then times ops one after another (a closed loop with one
client) until ``--seconds`` of op time are measured and at least the
workload's ``min_ops`` ops are done.  Every op's result is checked
outside the timed region.  ``--trace 1`` times half as long untraced,
then replays the same inputs on fresh state with spans around every
layer call and reports per-layer metrics instead.

The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  A run record with
per-op times (and the spans, when traced) is written to
``perfbench/out/``.
"""

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from collections import defaultdict  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = HERE / "out"

#: stop widening the timed loop past this much wall time, so a run on a
#: slow machine still exits well inside three minutes
WALL_CAP_S = 140.0

END_TO_END_UNITS = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "peak_rss_mb": "MB",
    "mean_bound_us": "us",
}

COUNT_METRICS = (
    "core.paths_bound",
    "netcalc.ports_analyzed",
    "netcalc.flow_folds",
    "netcalc.curve_knot_operations",
    "trajectory.sweeps",
    "trajectory.path_candidate_evaluations",
    "trajectory.path_competitor_folds",
    "incremental.changed_paths",
)
RATIO_METRICS = ("incremental.dirty_vls_ratio", "incremental.dirty_ports_ratio")
#: span name -> per-layer self-time metric
LAYER_SPANS = {
    "configs.build": "configs.build_s",
    "network.load": "network.load_s",
    "network.preflight": "network.preflight_s",
    "netcalc.analyze": "netcalc.analyze_s",
    "trajectory.analyze": "trajectory.analyze_s",
    "trajectory.nc_seed": "trajectory.nc_seed_s",
    "trajectory.precompute": "trajectory.precompute_s",
    "trajectory.sweep": "trajectory.sweep_s",
    "core.combine": "core.combine_s",
    "incremental.apply": "incremental.apply_s",
    "incremental.rollback": "incremental.rollback_s",
    "op": "bench.residual_s",
}


def _noise_hygiene() -> None:
    """No run history, one BLAS/OpenMP thread (before numpy loads)."""
    os.environ.pop("AFDX_HISTORY_DIR", None)
    for var in (
        "OMP_NUM_THREADS",
        "OPENBLAS_NUM_THREADS",
        "MKL_NUM_THREADS",
        "NUMEXPR_NUM_THREADS",
    ):
        os.environ[var] = "1"


#: the CPUs this process may run on; see take_turn
CPUS = sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else []


def take_turn(k: int) -> None:
    """Run the next unit of work (op or set-up) on CPU ``k`` mod the
    CPUs.  A process left alone stays on one CPU for the whole run, so
    the load a host neighbour puts on that one CPU would set the speed
    of every op; taking turns spreads the units evenly over the CPUs."""
    if len(CPUS) > 1:
        try:
            os.sched_setaffinity(0, {CPUS[k % len(CPUS)]})
        except OSError:  # a CPU taken away mid-run: stay where we are
            pass


def spin_s() -> float:
    """Machine-speed probe: median time of a fixed pure-Python loop."""
    samples = []
    for _ in range(3):
        start = time.perf_counter()
        acc = 0
        for k in range(300_000):
            acc += k * k
        samples.append(time.perf_counter() - start)
    return statistics.median(samples)


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Run:
    """One run: set-up, warm-up, timed loop, optional traced pass."""

    def __init__(self, workload_cls, seed: int, seconds: float, trace: bool) -> None:
        from checks import GoldenStore
        from spans import NullRecorder, SpanRecorder

        self.null = NullRecorder()
        self.rec = SpanRecorder() if trace else self.null
        self.workload = workload_cls(seed, self.rec)
        self.golden = GoldenStore()
        self.seconds = seconds
        self.trace = trace
        self.attempted = 0
        self.failures = []
        self.op_times = []
        self.traced_times = []
        self.counts = []
        self.bounds = []
        self.cache_counts = {"hits": 0, "misses": 0}
        self.peak_rss_mb = 0.0

    def _checked(self, index: int, rec):
        """Run op ``index`` (its input made first, untimed); returns its
        duration, or None when it raised.  Checks run after the clock."""
        workload = self.workload
        inp = workload.input(index)
        take_turn(index)
        # the previous op's garbage is collected here, not inside this
        # op; freezing the survivors keeps the collections that do run
        # inside the op from rescanning the long-lived heap
        gc.collect()
        gc.freeze()
        self.attempted += 1
        rec.op = index
        try:
            start = time.perf_counter()
            with rec.span("op"):
                outcome = workload.op(inp, rec)
            elapsed = time.perf_counter() - start
        except Exception:  # an op that raises is a failed op; keep running
            self.failures.append(f"op {index}: {traceback.format_exc(limit=3)}")
            return None, None
        finally:
            rec.op = None
        try:
            problems = workload.check(index, inp, outcome, self.golden)
        except Exception:  # a result the checks cannot even read is wrong
            problems = [traceback.format_exc(limit=3)]
        if problems:
            self.failures.append(f"op {index} ({inp.key}): " + "; ".join(problems[:3]))
        return elapsed, outcome

    def setup(self) -> None:
        workload = self.workload
        for rep in range(workload.setup_reps):
            take_turn(rep)
            gc.collect()
            workload.setup()
        base_problems = list(workload.base_problems)
        if workload.base_digest is not None:
            self.attempted += 1
            if self.golden.verdict(workload.name, "base", workload.base_digest) is False:
                base_problems.append("(d) base digest differs from golden")
            if base_problems:
                self.failures.append("set-up: " + "; ".join(base_problems[:3]))

    def timed_loop(self) -> None:
        workload = self.workload
        budget = self.seconds / 2 if self.trace else self.seconds
        cache_before = None
        index = 0
        while (
            sum(self.op_times) < budget or index < workload.min_ops
        ) and time.perf_counter() - _T0 < WALL_CAP_S:
            if index == 0 and workload.cache is not None:
                cache_before = workload.cache.stats()
            elapsed, outcome = self._checked(index, self.null)
            index += 1
            if elapsed is None:
                continue
            self.op_times.append(elapsed)
            if index <= workload.min_ops:
                self.counts.append(workload.counts(outcome))
                self.bounds.extend(p.best_us for p in outcome.comparison.paths.values())
            if index == workload.min_ops:
                # through the fixed prefix only: a faster machine runs
                # more ops and would grow the cache further
                self.peak_rss_mb = _peak_rss_mb()
                if cache_before is not None:
                    after = workload.cache.stats()
                    for name in self.cache_counts:
                        self.cache_counts[name] = after[name] - cache_before[name]
            del outcome

    def traced_pass(self) -> None:
        """Fresh state, the same warm-up, then the same ops, traced."""
        workload = self.workload
        workload.reset()
        self._checked(-1, self.null)
        for index in range(len(self.op_times)):
            elapsed, _ = self._checked(index, self.rec)
            if elapsed is not None:
                self.traced_times.append(elapsed)

    # ------------------------------------------------------------------

    def end_to_end(self, import_s: float) -> dict:
        times = self.op_times
        return {
            "setup_s": import_s + statistics.median(self.workload.setup_samples),
            "ops_per_s": len(times) / math.fsum(times),
            "peak_rss_mb": self.peak_rss_mb or _peak_rss_mb(),
            "mean_bound_us": math.fsum(self.bounds) / len(self.bounds),
        }

    def per_layer(self, spin: float) -> dict:
        from spans import self_times

        spans = self.rec.spans
        own = self_times(spans)
        in_op = defaultdict(lambda: defaultdict(float))
        outside = defaultdict(list)
        op_span_s = {}
        for span, seconds in zip(spans, own):
            if span["op"] is None:
                outside[span["name"]].append(seconds)
                continue
            in_op[span["op"]][span["name"]] += seconds
            if span["name"] == "op":
                op_span_s[span["op"]] = float(span["end"]) - float(span["start"])
        ops = sorted(in_op)
        metrics = {}
        for name, metric in LAYER_SPANS.items():
            samples = [in_op[op][name] for op in ops if name in in_op[op]]
            samples = samples or outside.get(name, [])
            metrics[metric] = statistics.median(samples) if samples else 0.0
        # accounting: per op, the layer self times plus the residual
        # (the op span's own self time) add up to the traced op time
        self.accounting_gap = max(
            abs(math.fsum(in_op[op].values()) - op_span_s[op]) for op in ops
        )
        counts = self.counts
        for name in COUNT_METRICS + RATIO_METRICS:
            values = [c[name] for c in counts if name in c]
            metrics[name] = statistics.median_low(values) if values else 0
        hits, misses = self.cache_counts["hits"], self.cache_counts["misses"]
        metrics["cache.hits"] = hits
        metrics["cache.misses"] = misses
        metrics["cache.hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
        metrics["trace.overhead_ratio"] = statistics.median(
            self.traced_times
        ) / statistics.median(self.op_times)
        metrics["env.spin_s"] = spin
        return metrics


def _unit(name: str) -> str:
    if name in END_TO_END_UNITS:
        return END_TO_END_UNITS[name]
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ratio"):
        return "ratio"
    return "count"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: no program sources at {ROOT / 'src' / 'repro'}", file=sys.stderr)
        return 2

    _noise_hygiene()
    sys.path[:0] = [str(HERE), str(ROOT / "src")]
    from workloads import WORKLOADS

    import_s = time.perf_counter() - _T0
    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}")

    spin_start = spin_s()
    run = Run(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace))
    run.setup()
    run._checked(-1, run.null)  # discarded warm-up op
    run.timed_loop()
    if run.trace:
        run.traced_pass()
    spin_end = spin_s()

    failed = len(run.failures)
    info = {
        "error_rate": failed / run.attempted,
        "op_p50_s": statistics.median(run.op_times),
        "op_p90_s": statistics.quantiles(run.op_times, n=10)[-1]
        if len(run.op_times) >= 2
        else run.op_times[0],
        "timed_ops": len(run.op_times),
        "deterministic_ops": len(run.counts),
        "env.spin_start_s": spin_start,
        "env.spin_end_s": spin_end,
        "golden_pinned": sum(
            run.golden.get(run.workload.name, key) is not None
            for key in run.workload.digests
        ),
        "golden_checked_inputs": len(run.workload.digests),
    }
    if run.trace:
        metrics = run.per_layer((spin_start + spin_end) / 2)
        info["traced_op_p50_s"] = statistics.median(run.traced_times)
        info["accounting_gap_s"] = run.accounting_gap
    else:
        metrics = run.end_to_end(import_s)

    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace}")
    for name, value in metrics.items():
        print(f"  {name:40s} {value:>16.6g} {_unit(name)}")
    print(f"  {'error_rate':40s} {info['error_rate']:>16.6g} ratio")
    for name, value in info.items():
        if name != "error_rate":
            print(f"  ({name}: {value:.6g})")
    for failure in run.failures[:10]:
        print(f"  FAILED {failure}")

    OUT_DIR.mkdir(exist_ok=True)
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "metrics": metrics,
        "info": info,
        "op_times_s": run.op_times,
        "setup_samples_s": run.workload.setup_samples,
        "traced_op_times_s": run.traced_times,
        "failures": run.failures,
        "spans": run.rec.spans if run.trace else [],
    }
    out = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record, indent=1) + "\n")

    result = {
        "correct": failed == 0,
        "attempted": run.attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": _unit(name)} for name, value in metrics.items()
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
