"""Gap-estimation benchmark for qpde.

    python3 gapbench/run.py --workload ideal-fresh --seed 1 --seconds 30 --trace 0

Runs one workload (or `all` of them, one after another in this process)
and prints each metric by name and unit, then, as the last line, one JSON
object with `correct`, `attempted`, `failed` and `metrics`.  With
`--trace 0` the metrics are the end-to-end ones; with `--trace 1` a fixed
number of untraced and traced rounds alternate, and the metrics are the
per-layer ones from the traced spans plus the tracing overhead.  See
README.md in this directory.

The package is imported from `src/` of the checkout this file sits in;
without it the benchmark exits with status 1 and prints no result.
"""
from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

# The program is single-threaded; keep BLAS to one thread (of the two
# cores) so timings do not depend on thread scheduling.  Set before numpy
# is imported here or in a set-up child, which inherits the environment.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

BENCH_DIR = Path(__file__).resolve().parent
SRC_DIR = BENCH_DIR.parent / "src"
OUT_DIR = BENCH_DIR / "out"
SETUP_REPEATS = 7

# Imports qpde and prepares the workload in a fresh interpreter, so that
# set-up is measured cold every time; numpy is imported before the clock
# starts because it is not part of the program.
SETUP_CHILD = """
import sys, time
sys.path[:0] = [sys.argv[1], sys.argv[2]]
import numpy
start = time.perf_counter()
import workloads
workloads.WORKLOADS[sys.argv[3]](int(sys.argv[4])).prepare()
print(repr(time.perf_counter() - start))
"""


def _import_program():
    if not (SRC_DIR / "qpde" / "__init__.py").is_file():
        sys.exit(f"gapbench: no qpde package under {SRC_DIR}")
    sys.path[:0] = [str(BENCH_DIR), str(SRC_DIR)]
    import qpde
    if Path(qpde.__file__).resolve().parent != (SRC_DIR / "qpde").resolve():
        sys.exit(f"gapbench: imported qpde from {qpde.__file__}, not from {SRC_DIR}")


def setup_seconds(name: str, seed: int) -> float:
    times = []
    for _ in range(SETUP_REPEATS):
        child = subprocess.run(
            [sys.executable, "-c", SETUP_CHILD, str(BENCH_DIR), str(SRC_DIR), name, str(seed)],
            capture_output=True, text=True, timeout=150, check=True)
        times.append(float(child.stdout.split()[-1]))
    return statistics.median(times)


def run_rounds(workload, first: int, problems: list, seconds: float | None = None,
               min_rounds: int = 1, rounds: int | None = None):
    """Whole rounds from index `first`: exactly `rounds` of them, or at least
    `min_rounds` and more while the next one is expected to end within
    `seconds`.  Returns (outcomes per round, wall seconds)."""
    done = []
    start = perf_counter()
    while True:
        outcomes = []
        for op in workload.round(first + len(done)):
            outcomes.append(workload.run(op, OUT_DIR, problems))
            if outcomes[-1].failed:
                print(f"{workload.name}: failed: {op} -> {outcomes[-1].fingerprint}",
                      file=sys.stderr)
        done.append(outcomes)
        elapsed = perf_counter() - start
        if rounds is not None:
            if len(done) == rounds:
                return done, elapsed
        elif len(done) >= min_rounds and elapsed * (len(done) + 1) / len(done) > seconds:
            return done, elapsed


def check_repeats(workload, done: list, problems: list) -> None:
    """Rounds with identical inputs must give bit-identical estimates and
    identical work counts."""
    if not workload.repeats:
        return
    for index, outcomes in enumerate(done[1:], start=1):
        for op, first, again in zip(workload.round(0), done[0], outcomes):
            if first.fingerprint != again.fingerprint:
                problems.append(f"{workload.name} round {index}: {op} gave "
                                f"{again.fingerprint}, round 0 gave {first.fingerprint}")


def _with_result(done: list) -> list:
    return [o for outcomes in done for o in outcomes if o.fingerprint]


def _gap_error_p50(done: list) -> float:
    return statistics.median(o.gap_error for o in _with_result(done))


def end_to_end(workload, done: list, setup_s: float) -> dict:
    ops = [o for outcomes in done for o in outcomes]
    busy = sum(o.seconds for o in ops)
    reference = _with_result(done[:workload.min_rounds])
    return {
        "setup_s": (setup_s, "s"),
        "estimate_s_p50": (statistics.median(o.seconds for o in ops), "s"),
        "estimates_per_s": (len(ops) / busy, "1/s"),
        "sweep_points_per_s": (sum(o.sweep_points for o in ops) / busy, "1/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "sweep_points_per_estimate": (
            statistics.fmean(o.sweep_points for o in reference), "count"),
        "evolution_time_per_estimate": (
            statistics.fmean(o.evolution_time for o in reference), "1/J"),
    }


def _seconds_per_point(done: list) -> float:
    ops = [o for outcomes in done for o in outcomes]
    return sum(o.seconds for o in ops) / sum(o.sweep_points for o in ops)


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    import tracing
    import workloads

    workload = workloads.WORKLOADS[name](seed)
    problems: list[str] = []
    setup_s = setup_seconds(name, seed)
    workload.prepare()
    workload.warm_up(OUT_DIR)
    notes = []
    if not trace:
        done, _ = run_rounds(workload, 0, problems, seconds, min_rounds=workload.min_rounds)
        metrics = end_to_end(workload, done, setup_s)
        # Printed but left out of the result; README.md says why.
        notes.append(f"gap_abs_error_p50 = {_gap_error_p50(done[:workload.min_rounds]):.6g} J "
                     f"over the first {workload.min_rounds} rounds")
        times = [o.seconds for outcomes in done for o in outcomes]
        if len(times) >= 100:
            notes.append(f"estimate_s_p90 = {statistics.quantiles(times, n=10)[8]:.6g} s "
                         f"over {len(times)} estimations")
    else:
        # Untraced and traced rounds alternate, so that drift in the
        # machine's speed does not show up as tracing overhead.
        tracer = tracing.Tracer()
        plain, traced, wall = [], [], 0.0
        for pair in range(workload.trace_rounds):
            plain += run_rounds(workload, 2 * pair, problems, rounds=1)[0]
            missing = tracer.install()
            try:
                rounds, elapsed = run_rounds(workload, 2 * pair + 1, problems, rounds=1)
            finally:
                tracer.remove()
            traced += rounds
            wall += elapsed
        if missing:
            print("trace: not hooked (absent): " + ", ".join(missing), file=sys.stderr)
        tracer.counts["cli.bytes_written"] = sum(o.bytes_written for r in traced for o in r)
        metrics = tracer.layer_metrics(wall)
        metrics["engine.gap_abs_error_p50"] = (_gap_error_p50(traced), "J")
        metrics["trace.overhead_pct"] = (100.0 * (_seconds_per_point(traced)
                                                  / _seconds_per_point(plain) - 1.0), "%")
        if metrics["trace.layer_self_s"][0] > wall:
            problems.append(f"layer self times {metrics['trace.layer_self_s'][0]} s "
                            f"exceed the traced wall time {wall} s")
        spans_path = OUT_DIR / f"spans-{name}-seed{seed}.csv"
        tracer.write_csv(spans_path)
        notes.append(f"{len(tracer.spans)} spans written to {spans_path}")
        done = [r for pair in zip(plain, traced) for r in pair]
    check_repeats(workload, done, problems)
    for problem in problems:
        print(f"{name}: INCORRECT: {problem}", file=sys.stderr)
    ops = [o for outcomes in done for o in outcomes]
    return {"correct": not problems, "attempted": len(ops),
            "failed": sum(o.failed for o in ops), "rounds": len(done),
            "metrics": metrics, "notes": notes}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=["ideal-fresh", "noisy-paper", "cli-bundled", "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or not args.seconds > 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    _import_program()
    import oracle
    oracle.self_check()
    OUT_DIR.mkdir(exist_ok=True)

    names = (["ideal-fresh", "noisy-paper", "cli-bundled"] if args.workload == "all"
             else [args.workload])
    results = {}
    for name in names:
        result = run_workload(name, args.seed, args.seconds, bool(args.trace))
        results[name] = result
        print(f"{name}: seed {args.seed}, {result['rounds']} rounds, "
              f"{result['attempted']} attempted, {result['failed']} failed, "
              f"correct {result['correct']}")
        for metric, (value, unit) in result["metrics"].items():
            print(f"{name}: {metric} = {value:.6g} {unit}")
        for note in result["notes"]:
            print(f"{name}: {note}")

    def metric_map(result, prefix=""):
        return {prefix + k: {"value": v if isinstance(v, int) else float(v), "unit": u}
                for k, (v, u) in result["metrics"].items()}

    if len(names) == 1:
        metrics = metric_map(results[names[0]])
    else:
        metrics = {k: v for name in names for k, v in metric_map(results[name], name + "/").items()}
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
