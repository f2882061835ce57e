"""Seed survey of sampled and noisy estimations over fixed seed ranges.

Run from the repository root:

    PYTHONPATH=src python tests/survey.py

pytest does not collect this file.  Every seed range and every drawn
system is fixed, so two commits are compared setting by setting on the
same inputs.  The settings are:

- the six paper systems x sampler seeds 100-139 in noisy mode at
  (p_depol, shots) = (0.002, 5000), (0.01, 500) and (0.02, 5000);
- 100 random linear chains and 100 random triangles (couplings uniform
  in [0.5, 2], excited state D1 and D2 in turn), in exact mode and in
  shots mode at 2000 shots with sampler seeds 100-199.  The exact rows
  separate the estimator's own error from the shot noise.

Every run starts from the paper's prior gaussian(0, 10) with the default
`EstimatorConfig`.  Per setting the survey prints the share of runs below
the paper's 85-93 % accuracy band, the runs whose error exceeds 0.05 J,
the accuracy quantiles p05 and p50, and the `stop_reason` counts.
"""
from __future__ import annotations

import collections
import time

import numpy as np

from qpde import (PriorSpec, SamplerSpec, linear_chain, run_estimation, triangle,
                  two_spin_system)

PAPER_SYSTEMS = (
    ("two-spin", two_spin_system(1.0), "T", "S"),
    ("linear-chain", linear_chain(1.0, 1.0), "Q", "D2"),
    ("frustrated-triangle", triangle(1.0, 1.0, 1.0), "Q", "D2"),
    ("non-frustrated-d1", triangle(1.0, 1.0, 2.0), "Q", "D1"),
    ("non-frustrated-d2", triangle(1.0, 1.0, 2.0), "Q", "D2"),
    ("asymmetric-chain", linear_chain(1.0, 1.1), "Q", "D1"),
)
PAPER_SEEDS = range(100, 140)
NOISY_SETTINGS = ((0.002, 5000), (0.01, 500), (0.02, 5000))
RANDOM_FAMILIES = ("chain", "triangle")
RANDOM_SYSTEMS = 100
RANDOM_SHOTS = 2000
RANDOM_SEED0 = 100
BAND = (0.85, 0.93)
ERROR_LIMIT = 0.05
STOP_REASONS = ("converged", "max_iterations", "restart_limit", "fit_failed",
                "schedule_end")


def random_systems(family: str):
    """The fixed draw of one random family: (system, ground, excited)."""
    key = (RANDOM_FAMILIES.index(family),)
    rng = np.random.default_rng(np.random.SeedSequence(2025, spawn_key=key))
    for k in range(RANDOM_SYSTEMS):
        excited = ("D1", "D2")[k % 2]
        if family == "chain":
            system = linear_chain(*rng.uniform(0.5, 2.0, size=2))
        else:
            system = triangle(*rng.uniform(0.5, 2.0, size=3))
        yield system, "Q", excited


def settings():
    """(name, [(system, ground, excited, sampler), ...]) per setting."""
    for p_depol, shots in NOISY_SETTINGS:
        runs = [(system, ground, excited, SamplerSpec("noisy", shots, p_depol, seed))
                for _, system, ground, excited in PAPER_SYSTEMS for seed in PAPER_SEEDS]
        yield f"paper noisy p={p_depol} shots={shots}", runs
    for family in RANDOM_FAMILIES:
        systems = list(random_systems(family))
        yield f"random {family} exact", [(*case, SamplerSpec()) for case in systems]
        runs = [(*case, SamplerSpec("shots", RANDOM_SHOTS, seed=RANDOM_SEED0 + k))
                for k, case in enumerate(systems)]
        yield f"random {family} shots={RANDOM_SHOTS}", runs


def survey(runs) -> dict:
    accuracies, errors, reasons = [], [], collections.Counter()
    for system, ground, excited, sampler in runs:
        result = run_estimation(system, ground, excited, PriorSpec("gaussian", 0.0, 10.0),
                                sampler=sampler)
        accuracies.append(result.accuracy)
        errors.append(abs(result.final.mu - result.exact_gap))
        reasons[result.stop_reason] += 1
    accuracies = np.array(accuracies)
    return {"runs": len(runs),
            "below_band": int(np.sum(accuracies < BAND[0])),
            "error_over_limit": int(np.sum(np.array(errors) > ERROR_LIMIT)),
            "p05": float(np.quantile(accuracies, 0.05)),
            "p50": float(np.quantile(accuracies, 0.5)),
            "reasons": reasons}


def main() -> None:
    print(f"accuracy band {BAND[0]:.0%}-{BAND[1]:.0%}; error limit {ERROR_LIMIT} J")
    header = (f"{'setting':<34} {'runs':>4} {'<85%':>9} {'err>0.05':>8} {'p05':>7} "
              f"{'p50':>7}  " + " ".join(f"{r:>14}" for r in STOP_REASONS))
    print(header)
    start = time.perf_counter()
    for name, runs in settings():
        row = survey(runs)
        share = f"{row['below_band']} ({row['below_band'] / row['runs']:.0%})"
        print(f"{name:<34} {row['runs']:>4} {share:>9} {row['error_over_limit']:>8} "
              f"{row['p05']:>7.3f} {row['p50']:>7.3f}  "
              + " ".join(f"{row['reasons'][r]:>14}" for r in STOP_REASONS), flush=True)
    print(f"({time.perf_counter() - start:.0f} s)")


if __name__ == "__main__":
    main()
