"""The three workloads: input generation, one operation, output checks.

An operation is one gap estimation: a `run_estimation` call, or one
`qpde run` invocation through `qpde.cli.main`.  A workload is a sequence
of rounds; every round holds the same kinds of operations, so the share
of failed operations does not depend on how many rounds a run completes.
Round inputs are drawn from the workload seed only.

Every check compares the program's output with the independent oracle in
oracle.py or with a property the output must have, never with a stored
copy of an earlier output.  A miss of the estimate counts the operation
as failed; a wrong reference gap, a malformed artifact or a
non-reproducible result is a correctness problem and makes the whole run
incorrect.
"""
from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import tempfile
import traceback
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import numpy as np

import oracle
import qpde
import qpde.engine

IDEAL_TOLERANCE = 0.05       # J, the acceptance suite's ideal-mode tolerance
IDEAL_STEPS_PER_UNIT_TIME = 75.0
NOISY_MIN_ACCURACY = 0.85    # the paper's accuracy band
EXACT_GAP_TOLERANCE = 1e-9


@dataclass(frozen=True)
class EstimationOp:
    n_spins: int
    couplings: tuple
    ground: str
    excited: str
    prior: tuple             # (shape, mu, sigma)
    sampler: tuple           # (mode, shots, p_depol, seed)
    gap: float               # oracle gap
    steps_per_unit_time: float = 150.0


@dataclass(frozen=True)
class CliOp:
    config: str
    seed: int
    gap: float


@dataclass
class Outcome:
    seconds: float
    failed: bool
    sweep_points: int = 0
    evolution_time: float = 0.0
    gap_error: float = math.nan
    fingerprint: tuple = ()
    bytes_written: int = 0


def _estimation_outcome(op: EstimationOp, result, seconds: float, problems: list) -> Outcome:
    mu = result.final.mu
    error = abs(mu - op.gap)
    if op.sampler[0] == "noisy":
        failed = 1.0 - error / abs(op.gap) < NOISY_MIN_ACCURACY
    else:
        failed = error > IDEAL_TOLERANCE
    if result.exact_gap is None or abs(result.exact_gap - op.gap) > EXACT_GAP_TOLERANCE:
        problems.append(f"{op}: program reference gap {result.exact_gap!r}, "
                        f"oracle {op.gap!r}")
    points = [p for row in result.trace for p in row.points]
    if any(not 0.0 <= p.p0 <= 1.0 for p in points):
        problems.append(f"{op}: sweep probability outside [0, 1]")
    return Outcome(
        seconds, failed,
        sweep_points=len(points),
        evolution_time=sum(row.t * len(row.points) for row in result.trace),
        gap_error=error,
        fingerprint=(mu, result.final.sigma, len(result.trace), len(points)))


def run_estimation_op(op: EstimationOp, problems: list) -> Outcome:
    system = qpde.SpinSystem(op.n_spins, op.couplings)
    prior = qpde.PriorSpec(*op.prior)
    sampler = qpde.SamplerSpec(*op.sampler)
    config = qpde.EstimatorConfig(steps_per_unit_time=op.steps_per_unit_time)
    start = perf_counter()
    try:
        result = qpde.engine.run_estimation(system, op.ground, op.excited, prior,
                                            config, sampler)
    except Exception:
        traceback.print_exc()
        return Outcome(perf_counter() - start, True)
    return _estimation_outcome(op, result, perf_counter() - start, problems)


def _read_csv(path: Path) -> list[dict]:
    with path.open(newline="") as handle:
        return list(csv.DictReader(handle))


def _check_cli_outputs(op: CliOp, out: Path, problems: list) -> tuple[dict, list, list]:
    summary = json.loads((out / "summary.json").read_text())
    iterations = _read_csv(out / "iterations.csv")
    sweeps = _read_csv(out / "sweeps.csv")
    report = _read_csv(out / "optimizer_report.csv")
    where = f"{op.config} --seed {op.seed}"
    config = summary["config"]
    if abs(summary["exact_gap"] - op.gap) > EXACT_GAP_TOLERANCE:
        problems.append(f"{where}: summary exact_gap {summary['exact_gap']!r}, "
                        f"oracle {op.gap!r}")
    n_couplings = len(config["system"]["couplings"])
    for row in report:
        if int(row["pre_two_qubit_count"]) != int(row["n_steps"]) * n_couplings:
            problems.append(f"{where}: optimizer row {row} pre_two_qubit_count is "
                            f"not n_steps x {n_couplings}")
        if int(row["post_gate_count"]) != 1 or int(row["post_depth"]) != 1:
            problems.append(f"{where}: optimizer row {row} not collapsed to one gate")
    grid_points = config["estimator"]["grid_points"]
    per_iteration = [0] * len(iterations)
    for row in sweeps:
        per_iteration[int(row["iteration_index"])] += 1
        for key in ("p0_sampled", "p0_exact"):
            if not 0.0 <= float(row[key]) <= 1.0:
                problems.append(f"{where}: sweeps.csv {key} {row[key]} outside [0, 1]")
    if len(iterations) != summary["iterations"] or any(
            count != grid_points for count in per_iteration):
        problems.append(f"{where}: sweeps.csv rows per iteration {per_iteration}, "
                        f"expected {grid_points} for each of {summary['iterations']}")
    return summary, iterations, sweeps


def run_cli_op(op: CliOp, out_dir: Path, problems: list) -> Outcome:
    import qpde.cli
    with tempfile.TemporaryDirectory(dir=out_dir) as tmp:
        argv = ["run", "--config", op.config, "--seed", str(op.seed), "--out", tmp]
        start = perf_counter()
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                code = qpde.cli.main(argv)
        except Exception:
            traceback.print_exc()
            return Outcome(perf_counter() - start, True)
        seconds = perf_counter() - start
        if code != 0:
            return Outcome(seconds, True)
        out = Path(tmp)
        written = sum(path.stat().st_size for path in out.iterdir())
        summary, iterations, sweeps = _check_cli_outputs(op, out, problems)
    mu = summary["final"]["mu"]
    t_of = [float(row["t"]) for row in iterations]
    return Outcome(
        seconds, abs(mu - op.gap) > IDEAL_TOLERANCE,
        sweep_points=len(sweeps),
        evolution_time=sum(t_of[int(row["iteration_index"])] for row in sweeps),
        gap_error=abs(mu - op.gap),
        fingerprint=(mu, summary["final"]["sigma"], len(iterations), len(sweeps)),
        bytes_written=written)


def _rng(seed: int, *path: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=path))


class Workload:
    """A workload's rounds and how to run one of its operations.

    min_rounds: rounds every untraced run completes; the device-cost
    metrics are taken over them, so they repeat exactly for a seed.
    trace_rounds: pairs of one untraced and one traced round in a traced
    run.
    repeats: every round has the same inputs, so round r must reproduce
    round 0 bit for bit.
    """

    name = ""
    min_rounds = 1
    trace_rounds = 1
    repeats = False

    def __init__(self, seed: int):
        self.seed = seed

    def prepare(self) -> None:
        """Program-side set-up of the workload's fixed inputs."""

    def warm_up(self, out_dir: Path) -> None:
        """One untimed operation outside the workload's inputs."""

    def round(self, index: int) -> list:
        raise NotImplementedError

    def run(self, op, out_dir: Path, problems: list) -> Outcome:
        return run_estimation_op(op, problems)


class IdealFresh(Workload):
    """Ideal-mode estimations on newly drawn couplings from families with
    closed-form gaps; Gaussian priors wide and off-centre enough that
    about a fifth of the estimations restart.

    Trotter steps are 75 per unit time, not the default 150: at 150 the
    last iterations reach 550-590 steps, where the matrix-power evolution
    gate drifts past Gate's 1e-12 unitarity check for about one estimation
    in 3000, depending on the drawn couplings.  At 75 (at most 295 steps)
    the drift stays below 6e-13 and the estimates stay as accurate."""

    name = "ideal-fresh"
    min_rounds = 40
    trace_rounds = 20

    def warm_up(self, out_dir: Path) -> None:
        qpde.engine.run_estimation(qpde.two_spin_system(1.0), "T", "S",
                                   qpde.PriorSpec("gaussian", 0.0, 10.0))

    def round(self, index: int) -> list:
        rng = _rng(self.seed, index)
        ops = []
        for family, ground, excited, with_b in (("two_spin", "T", "S", False),
                                                ("D1", "Q", "D1", True),
                                                ("D2", "Q", "D2", True),
                                                ("D1", "Q", "D1", False),
                                                ("D2", "Q", "D2", False)):
            a = float(rng.uniform(0.5, 2.0))
            b = float(rng.uniform(0.25, 2.0)) if with_b else 0.0
            if family == "two_spin":
                n, couplings = 2, ((1, 2, a),)
            else:
                n, couplings = 3, ((1, 2, a), (2, 3, a)) + (((1, 3, b),) if b else ())
            prior = ("gaussian", float(rng.uniform(-4.0, 4.0)), float(rng.uniform(6.0, 12.0)))
            gap = oracle.reference_gap(n, couplings, ground, excited)
            closed = oracle.closed_form_gap(family, a, b)
            if abs(gap - closed) > EXACT_GAP_TOLERANCE:
                raise RuntimeError(f"oracle {gap!r} != closed form {closed!r} for {couplings}")
            ops.append(EstimationOp(n, couplings, ground, excited, prior,
                                    ("exact", 5000, 0.0, 0), gap, IDEAL_STEPS_PER_UNIT_TIME))
        return ops


#: The noisy sampler seed of the six paper systems (that of the bundled
#: configs), and the pinned case that fails on the seed commit: fit_gaussian
#: accepts an almost flat fit far outside the swept window and the run
#: restarts onto it.
NOISY_PANEL_SEED = 11
PINNED = ("nonfrustrated_triangle_d2", 17)
PAPER_BY_NAME = {system[0]: system for system in oracle.PAPER_SYSTEMS}


class NoisyPaper(Workload):
    """The paper's hardware-like setting on its six systems plus the pinned
    case.  Seed-derived sampler streams fail about one estimation in a
    hundred and vary the work per run twofold, so the streams are fixed and
    the workload seed sets the order of the seven estimations."""

    name = "noisy-paper"
    min_rounds = 2
    repeats = True

    def _cases(self):
        cases = [(system, NOISY_PANEL_SEED) for system in oracle.PAPER_SYSTEMS]
        cases.append((PAPER_BY_NAME[PINNED[0]], PINNED[1]))
        return [cases[k] for k in _rng(self.seed).permutation(len(cases))]

    def prepare(self) -> None:
        for (_, n, couplings, ground, excited, _, _), _ in self._cases():
            qpde.exact_gap(qpde.SpinSystem(n, couplings), ground, excited)

    def warm_up(self, out_dir: Path) -> None:
        qpde.engine.run_estimation(qpde.two_spin_system(1.0), "T", "S",
                                   qpde.PriorSpec("gaussian", 0.0, 10.0),
                                   sampler=qpde.SamplerSpec("noisy", 5000, 0.002, 0))

    def round(self, index: int) -> list:
        return [EstimationOp(n, couplings, ground, excited, ("gaussian", 0.0, 10.0),
                             ("noisy", 5000, 0.002, sampler_seed),
                             oracle.reference_gap(n, couplings, ground, excited))
                for (_, n, couplings, ground, excited, _, _), sampler_seed in self._cases()]


#: The twelve bundled configurations: six adaptive, six replayed schedules.
CLI_CONFIGS = tuple(name for system in oracle.PAPER_SYSTEMS
                    for name in (system[0], "replay_" + system[0]))


class CliBundled(Workload):
    """`qpde run` on every bundled config with --seed set to the workload
    seed, each into a fresh temporary directory."""

    name = "cli-bundled"
    min_rounds = 2
    trace_rounds = 2
    repeats = True

    def _config_path(self, name: str) -> Path:
        return Path(qpde.__file__).parent / "configs" / f"{name}.json"

    def prepare(self) -> None:
        import qpde.cli  # part of the set-up a `qpde run` user pays
        for name in CLI_CONFIGS:
            cfg = qpde.cli.load_config(name)
            qpde.exact_gap(cfg["system"], cfg["ground_label"], cfg["excited_label"])

    def warm_up(self, out_dir: Path) -> None:
        with tempfile.TemporaryDirectory(dir=out_dir) as tmp, \
                contextlib.redirect_stdout(io.StringIO()):
            qpde.cli.main(["run", "--config", "two_spin", "--seed", "0", "--out", tmp])

    def round(self, index: int) -> list:
        ops = []
        for name in CLI_CONFIGS:
            raw = json.loads(self._config_path(name).read_text())
            couplings = tuple(tuple(c) for c in raw["system"]["couplings"])
            gap = oracle.reference_gap(raw["system"]["n_spins"], couplings,
                                       raw["ground_label"], raw["excited_label"])
            *_, paper_gap, tolerance = PAPER_BY_NAME[name.removeprefix("replay_")]
            if abs(gap - paper_gap) > tolerance:
                raise RuntimeError(f"config {name}: oracle gap {gap!r}, paper {paper_gap}")
            ops.append(CliOp(name, self.seed, gap))
        return ops

    def run(self, op, out_dir: Path, problems: list) -> Outcome:
        return run_cli_op(op, out_dir, problems)


WORKLOADS = {w.name: w for w in (IdealFresh, NoisyPaper, CliBundled)}
