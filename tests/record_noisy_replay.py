"""Regenerate `tests/data/noisy_replay.json` from the current engine.

Run from the repository root:

    PYTHONPATH=src python tests/record_noisy_replay.py

It reruns the 60 recorded noisy estimations, the six paper systems x
sampler seeds 0-4 at p_depol 0.002 and 0.02 with 5000 shots, and
overwrites the file.  `test_noisy_run_repeats_the_recorded_draws` replays
them; rerun this only when a change moves the sampled values on purpose.
"""
from __future__ import annotations

import json
from pathlib import Path

from qpde import PriorSpec, SamplerSpec, run_estimation
from survey import PAPER_SYSTEMS

PATH = Path(__file__).parent / "data" / "noisy_replay.json"
DESCRIPTION = (
    "Noisy estimations run by qpde.engine.run_estimation with one sampler stream "
    "per sweep: each sweep draws its 21 counts in one binomial call on "
    "derived_rng(seed, iteration, attempt). The six paper systems (prior "
    "gaussian(0, 10), default EstimatorConfig) x sampler seeds 0-4 at p_depol "
    "0.002 and 0.02, 5000 shots each. Per run: every iteration's t, n_steps, "
    "fit_attempts and the sampled p0 of its last sweep, then the final mu, sigma "
    "and stop_reason. A change that keeps the noisy path and its sampler streams "
    "repeats all of them exactly. Written by tests/record_noisy_replay.py.")


def record(name, system, ground, excited, p_depol, seed, shots=5000) -> dict:
    sampler = SamplerSpec("noisy", shots, p_depol, seed)
    result = run_estimation(system, ground, excited, PriorSpec("gaussian", 0.0, 10.0),
                            sampler=sampler)
    iterations = [{"t": row.t, "n_steps": row.n_steps, "fit_attempts": row.fit_attempts,
                   "p0": [point.p0 for point in row.points]} for row in result.trace]
    return {"system": name, "p_depol": p_depol, "shots": shots, "seed": seed,
            "iterations": iterations, "mu": result.final.mu,
            "sigma": result.final.sigma, "stop_reason": result.stop_reason}


def main() -> None:
    runs = [record(name, system, ground, excited, p_depol, seed)
            for p_depol in (0.002, 0.02)
            for name, system, ground, excited in PAPER_SYSTEMS
            for seed in range(5)]
    lines = ",\n".join("  " + json.dumps(run) for run in runs)
    PATH.write_text(f'{{"description": {json.dumps(DESCRIPTION)},\n "runs": [\n{lines}\n ]}}\n')
    print(f"wrote {len(runs)} runs to {PATH}")


if __name__ == "__main__":
    main()
