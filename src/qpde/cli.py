"""Configuration-driven command line runner.

Subcommands:

  qpde run      --config FILE [--seed N] [--shots N|exact]
                [--mode exact|shots|noisy] [--out DIR] [--schedule T:N,...]
  qpde oracle   --config FILE
  qpde optimize --config FILE [--out DIR]

`run` writes iterations.csv, sweeps.csv, optimizer_report.csv and
summary.json into the output directory and exits 0 on convergence, 2 on
non-convergence, 1 on a configuration error.  `oracle` prints the exact
spectrum and labeled gap as JSON.  `optimize` writes only the compression
report.  A bare config name (e.g. "two_spin") resolves to the bundled
configuration of that name.
"""
from __future__ import annotations

import argparse
import json
import math
import sys
import traceback
from functools import cache
from importlib import resources
from pathlib import Path

from .engine import EstimatorConfig, PriorSpec, preparation_pair, run_estimation
from .evolution import exchange_rotations
from .optimizer import cost_report
from .sampling import SamplerSpec
from .spin import SpinSystem, assignment, exact_gap, named_state, system_eigensystem


class ConfigError(Exception):
    """Invalid configuration; the message names the offending field."""


def bundled_config_names() -> list[str]:
    root = resources.files("qpde").joinpath("configs")
    return sorted(p.name[:-5] for p in root.iterdir() if p.name.endswith(".json"))


def _resolve_config_path(spec: str) -> Path:
    path = Path(spec)
    if path.exists():
        return path
    bundled = resources.files("qpde").joinpath("configs", f"{spec}.json")
    if bundled.is_file():
        return Path(str(bundled))
    raise ConfigError(f"config: no file {spec!r} and no bundled config of that "
                      f"name (available: {', '.join(bundled_config_names())})")


def _typed(value, kind, where: str):
    """value if it has JSON type kind; a float field also takes an int, a
    bool is never a number, and NaN or an infinity is never a float."""
    widened = kind is float and isinstance(value, int)
    if isinstance(value, bool) or not (widened or isinstance(value, kind)):
        raise ConfigError(f"{where}: expected {kind.__name__}, "
                          f"got {type(value).__name__}")
    if kind is float and not math.isfinite(value):
        raise ConfigError(f"{where}: expected a finite number, got {value!r}")
    return float(value) if widened else value


def _require(mapping: dict, key: str, kind, where: str):
    if key not in mapping:
        raise ConfigError(f"{where}.{key}: missing required field")
    return _typed(mapping[key], kind, f"{where}.{key}")


def _only_known(raw: dict, known, where: str) -> dict:
    """raw, if each of its keys is in known."""
    for key in raw:
        if key not in known:
            raise ConfigError(f"{where}.{key}: unknown field")
    return raw


def _known_fields(cls, raw: dict, where: str) -> dict:
    """raw's entries, each a field of dataclass cls with its default's type."""
    fields = cls.__dataclass_fields__
    return {key: _typed(value, type(fields[key].default), f"{where}.{key}")
            for key, value in _only_known(raw, fields, where).items()}


def parse_config(raw: dict) -> dict:
    """Validate the raw JSON structure and build typed components."""
    if not isinstance(raw, dict):
        raise ConfigError("config: top level must be a JSON object")
    _only_known(raw, ("system", "ground_label", "excited_label", "prior", "estimator",
                      "sampler", "output_dir"), "config")

    system_raw = _only_known(_require(raw, "system", dict, "config"),
                             SpinSystem.__dataclass_fields__, "system")
    n_spins = _require(system_raw, "n_spins", int, "system")
    couplings = []
    for idx, entry in enumerate(_require(system_raw, "couplings", list, "system")):
        where = f"system.couplings[{idx}]"
        if not isinstance(entry, list) or len(entry) != 3:
            raise ConfigError(f"{where}: expected [i, j, J]")
        couplings.append((_typed(entry[0], int, where), _typed(entry[1], int, where),
                          _typed(entry[2], float, where)))
    try:
        system = SpinSystem(n_spins, tuple(couplings))
    except ValueError as exc:
        raise ConfigError(f"system.couplings: {exc}") from exc

    ground = _require(raw, "ground_label", str, "config")
    excited = _require(raw, "excited_label", str, "config")
    try:
        preparation_pair(ground, excited, system.n_spins)
    except ValueError as exc:
        # A failed pair is not cached; name the label that failed, if one did.
        for field_name, label in (("ground_label", ground), ("excited_label", excited)):
            try:
                named_state(label, system.n_spins)
            except ValueError as label_exc:
                raise ConfigError(f"{field_name}: {label_exc}") from label_exc
        raise ConfigError(f"excited_label: {exc}") from exc

    prior_raw = _only_known(_require(raw, "prior", dict, "config"),
                            PriorSpec.__dataclass_fields__, "prior")
    try:
        prior = PriorSpec(_require(prior_raw, "shape", str, "prior"),
                          _require(prior_raw, "mu", float, "prior"),
                          _require(prior_raw, "sigma", float, "prior"))
    except ValueError as exc:
        raise ConfigError(f"prior: {exc}") from exc

    est_raw = dict(_typed(raw.get("estimator", {}), dict, "config.estimator"))
    schedule = est_raw.pop("explicit_schedule", None)
    if schedule is not None:
        parsed = []
        for idx, entry in enumerate(_typed(schedule, list, "estimator.explicit_schedule")):
            where = f"estimator.explicit_schedule[{idx}]"
            if not isinstance(entry, list) or len(entry) != 2:
                raise ConfigError(f"{where}: expected [t, n_steps]")
            parsed.append((_typed(entry[0], float, where), _typed(entry[1], int, where)))
        schedule = tuple(parsed)
    try:
        estimator = EstimatorConfig(explicit_schedule=schedule,
                                    **_known_fields(EstimatorConfig, est_raw, "estimator"))
    except ValueError as exc:
        raise ConfigError(f"estimator: {exc}") from exc

    sampler_raw = _typed(raw.get("sampler", {}), dict, "config.sampler")
    try:
        sampler = SamplerSpec(**_known_fields(SamplerSpec, sampler_raw, "sampler"))
    except ValueError as exc:
        raise ConfigError(f"sampler: {exc}") from exc

    output_dir = _typed(raw.get("output_dir", "runs/qpde"), str, "output_dir")

    return {"system": system, "ground_label": ground, "excited_label": excited,
            "prior": prior, "estimator": estimator, "sampler": sampler,
            "output_dir": output_dir}


def load_config(spec: str) -> dict:
    path = _resolve_config_path(spec)
    try:
        raw = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config: {path}: line {exc.lineno}: {exc.msg}") from exc
    return parse_config(raw)


def echo_config(cfg: dict) -> dict:
    """JSON-ready copy of a parsed config; reloading it reproduces the run.
    Each component is a dataclass that holds only its fields, so `vars`
    gives the fields in order; `dataclasses.asdict` would deep-copy every
    leaf, a few percent of a whole `qpde run`."""
    return json.loads(json.dumps(cfg, default=vars))


def _apply_overrides(cfg: dict, args: argparse.Namespace) -> dict:
    from dataclasses import replace

    sampler = cfg["sampler"]
    if args.seed is not None:
        try:
            sampler = replace(sampler, seed=args.seed)
        except ValueError as exc:
            raise ConfigError(f"--seed: {exc}") from exc
    if args.shots is not None:
        if args.shots == "exact":
            sampler = replace(sampler, mode="exact")
        else:
            try:
                sampler = replace(sampler, shots=int(args.shots))
            except ValueError as exc:
                raise ConfigError(f"--shots: expected a positive integer or 'exact', "
                                  f"got {args.shots!r}") from exc
    if args.mode is not None:
        sampler = replace(sampler, mode=args.mode)
    if sampler.mode == "noisy" and cfg["estimator"].evolution != "trotter":
        raise ConfigError(f"{'--mode' if args.mode else 'sampler.mode'}: noisy sampling "
                          f"requires estimator.evolution 'trotter'")
    cfg["sampler"] = sampler
    if args.out is not None:
        cfg["output_dir"] = args.out
    if getattr(args, "schedule", None):
        entries = []
        for chunk in args.schedule.split(","):
            try:
                t_str, n_str = chunk.split(":")
                entries.append((float(t_str), int(n_str)))
            except ValueError as exc:
                raise ConfigError(f"--schedule: bad entry {chunk!r}, "
                                  f"expected T:N") from exc
        try:
            cfg["estimator"] = replace(cfg["estimator"], explicit_schedule=tuple(entries))
        except ValueError as exc:
            raise ConfigError(f"--schedule: {exc}") from exc
    return cfg


def _write_csv(path: Path, header: str, rows) -> None:
    """The header and comma-joined rows in one write, in the bytes
    `csv.writer` gives them: every field is a float's repr, an int or a
    bare word, none of which needs quoting, and every line ends in CRLF."""
    path.write_text("".join(f"{line}\r\n" for line in (header, *rows)), newline="")


def _write_iterations_csv(path: Path, trace):
    _write_csv(path, "t,n_steps,mu_ini,sigma_ini,mu_fit,sigma_fit,mu_upd,sigma_upd,"
                     "restarted,fit_iterations,fit_reason,fit_attempts",
               (f"{row.t!r},{row.n_steps},{row.prior.mu!r},{row.prior.sigma!r},"
                f"{row.fit.mu!r},{row.fit.sigma!r},{row.posterior.mu!r},"
                f"{row.posterior.sigma!r},{'true' if row.restarted else 'false'},"
                f"{row.fit.iterations},{row.fit.reason},{row.fit_attempts}"
                for row in trace))


def _write_sweeps_csv(path: Path, trace):
    _write_csv(path, "iteration_index,delta_eps,p0_sampled,p0_exact",
               (f"{index},{point.delta_eps!r},{point.p0!r},{point.p0_exact!r}"
                for index, row in enumerate(trace) for point in row.points))


def _write_optimizer_csv(path: Path, system: SpinSystem, pairs):
    n = system.n_spins
    # The collapsed circuit is the one register block the run evolves with.
    post = cost_report(n, [tuple(range(n))])
    rows = []
    for t, n_steps in pairs:
        step = [(i - 1, j - 1) for i, j, _ in exchange_rotations(system, t / n_steps)]
        pre = cost_report(n, step, repeats=n_steps)
        rows.append(f"{t!r},{n_steps},{pre.depth},{pre.two_qubit_count},{pre.gate_count},"
                    f"{post.depth},{post.two_qubit_count},{post.gate_count}")
    _write_csv(path, "t,n_steps,pre_depth,pre_two_qubit_count,pre_gate_count,"
                     "post_depth,post_two_qubit_count,post_gate_count", rows)


def cmd_run(args) -> int:
    cfg = _apply_overrides(load_config(args.config), args)
    out_dir = Path(cfg["output_dir"])
    out_dir.mkdir(parents=True, exist_ok=True)
    result = run_estimation(cfg["system"], cfg["ground_label"],
                            cfg["excited_label"], cfg["prior"],
                            cfg["estimator"], cfg["sampler"])
    _write_iterations_csv(out_dir / "iterations.csv", result.trace)
    _write_sweeps_csv(out_dir / "sweeps.csv", result.trace)
    pairs = dict.fromkeys((row.t, row.n_steps) for row in result.trace)
    _write_optimizer_csv(out_dir / "optimizer_report.csv", cfg["system"], pairs)
    summary = {
        "final": {"mu": result.final.mu, "sigma": result.final.sigma},
        "converged": result.converged,
        "stop_reason": result.stop_reason,
        "exact_gap": result.exact_gap,
        "accuracy": result.accuracy,
        "seed": cfg["sampler"].seed,
        "iterations": len(result.trace),
        "config": echo_config(cfg),
    }
    (out_dir / "summary.json").write_text(json.dumps(summary, indent=2) + "\n")
    print(f"final gap estimate: {result.final.mu:.6f} +- {result.final.sigma:.6f} "
          f"({'converged' if result.converged else 'not converged'}); "
          f"outputs in {out_dir}")
    return 0 if result.converged else 2


def cmd_oracle(args) -> int:
    cfg = load_config(args.config)
    system, ground, excited = cfg["system"], cfg["ground_label"], cfg["excited_label"]
    payload = {
        "eigenvalues": [float(v) for v in system_eigensystem(system)[0]],
        "assignments": {
            label: dict(zip(("eigenstate_index", "energy", "overlap_sq"),
                            assignment(system, label)))
            for label in (ground, excited)},
        "gap": {"ground": ground, "excited": excited,
                "value": exact_gap(system, ground, excited)},
    }
    print(json.dumps(payload, indent=2))
    return 0


_OPTIMIZE_PROBE_TIMES = (0.2, 0.4, 1.0, 4.2)


def cmd_optimize(args) -> int:
    cfg = load_config(args.config)
    if args.out is not None:
        cfg["output_dir"] = args.out
    out_dir = Path(cfg["output_dir"])
    out_dir.mkdir(parents=True, exist_ok=True)
    estimator = cfg["estimator"]
    if estimator.explicit_schedule:
        pairs = list(estimator.explicit_schedule)
    else:
        from .engine import default_steps
        pairs = [(t, default_steps(cfg["system"], t, estimator.steps_per_unit_time))
                 for t in _OPTIMIZE_PROBE_TIMES]
    _write_optimizer_csv(out_dir / "optimizer_report.csv", cfg["system"], pairs)
    print(f"optimizer report written to {out_dir / 'optimizer_report.csv'}")
    return 0


@cache
def build_parser() -> argparse.ArgumentParser:
    """The command line parser, built on first use and shared by every
    `main` call in the process: parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="qpde",
        description="Energy-gap estimation for small Heisenberg spin systems")
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run a gap estimation")
    run_p.add_argument("--config", required=True,
                       help="config file path or bundled config name")
    run_p.add_argument("--seed", type=int, default=None)
    run_p.add_argument("--shots", default=None, help="shot count or 'exact'")
    run_p.add_argument("--mode", choices=["exact", "shots", "noisy"], default=None)
    run_p.add_argument("--out", default=None, help="output directory")
    run_p.add_argument("--schedule", default=None,
                       help="explicit schedule as T:N,T:N,...")
    run_p.set_defaults(func=cmd_run)

    oracle_p = sub.add_parser("oracle", help="print the exact spectrum and gap")
    oracle_p.add_argument("--config", required=True)
    oracle_p.set_defaults(func=cmd_oracle)

    opt_p = sub.add_parser("optimize", help="write the circuit compression report")
    opt_p.add_argument("--config", required=True)
    opt_p.add_argument("--out", default=None)
    opt_p.set_defaults(func=cmd_optimize)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except Exception:
        traceback.print_exc()
        return 1


if __name__ == "__main__":
    sys.exit(main())
