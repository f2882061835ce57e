"""In-process A/B timing of two `qpde.fitting` modules on the replay corpus.

Run from the repository root, naming the two `src` directories to compare:

    python tests/fit_timing.py OLD_SRC NEW_SRC [--rounds 40]

pytest does not collect this file.  Each `fitting.py` is loaded as its own
module in this one process, and the two alternate fit by fit over the 61
sweeps of `tests/data/fit_replay.json`, the one taking the lead swapped
each round.  Alternating inside one process keeps the comparison steady
where the host's speed drifts between runs.  Per workload the script
prints the median microseconds per fit of each side and the p10, median
and p90 of the per-fit time ratio NEW / OLD over all rounds and records.
"""
from __future__ import annotations

import argparse
import importlib.util
import json
import sys
from pathlib import Path
from time import perf_counter

import numpy as np

CORPUS = Path(__file__).parent / "data" / "fit_replay.json"


def load_fitting(src: str, name: str):
    spec = importlib.util.spec_from_file_location(name, Path(src) / "qpde" / "fitting.py")
    module = sys.modules[name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("old_src")
    parser.add_argument("new_src")
    parser.add_argument("--rounds", type=int, default=40)
    args = parser.parse_args()
    sides = (load_fitting(args.old_src, "fitting_old").fit_gaussian,
             load_fitting(args.new_src, "fitting_new").fit_gaussian)
    records = [(r["workload"], np.array(r["x"]), np.array(r["y"]), r["fallback_sigma"])
               for r in json.loads(CORPUS.read_text())["fits"]]
    for fit in sides:  # warm both before the clock
        for _, x, y, fallback in records:
            fit(x, y, fallback)

    seconds = np.empty((args.rounds, len(records), 2))
    for n in range(args.rounds):
        for k, (_, x, y, fallback) in enumerate(records):
            for side in ((0, 1) if (n + k) % 2 == 0 else (1, 0)):
                start = perf_counter()
                sides[side](x, y, fallback)
                seconds[n, k, side] = perf_counter() - start

    workloads = sorted({r[0] for r in records})
    print(f"{'workload':<12} {'fits':>4} {'old us':>8} {'new us':>8} "
          f"{'ratio p10':>9} {'p50':>6} {'p90':>6}")
    for workload in workloads + ["all"]:
        cols = [k for k, r in enumerate(records) if workload in ("all", r[0])]
        per_fit = seconds[:, cols] * 1e6
        ratio = per_fit[..., 1] / per_fit[..., 0]
        p10, p50, p90 = np.percentile(ratio, (10, 50, 90))
        print(f"{workload:<12} {len(cols):>4} {np.median(per_fit[..., 0]):>8.0f} "
              f"{np.median(per_fit[..., 1]):>8.0f} {p10:>9.2f} {p50:>6.2f} {p90:>6.2f}")


if __name__ == "__main__":
    main()
