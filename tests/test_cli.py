"""Command line interface: configs, outputs, exit codes, reproducibility."""
import csv
import io
import json

import pytest

import qpde.cli as cli
import qpde.engine as engine
from oracles import Circuit, Gate, TrotterPlan, trotter_circuit
from qpde import fitting
from qpde.cli import bundled_config_names, build_parser, echo_config, load_config, main
from qpde.evolution import evolution_block
from qpde.optimizer import cost_report
from qpde.spin import named_state


def run_cli(*argv):
    return main(list(argv))


def read_csv(path):
    with open(path, newline="") as handle:
        return list(csv.reader(handle))


def test_bundled_configs_present():
    names = bundled_config_names()
    assert "two_spin" in names
    assert "replay_frustrated_triangle" in names
    assert len(names) == 12


def test_run_two_spin_exact_mode(tmp_path, capsys):
    out = tmp_path / "run"
    code = run_cli("run", "--config", "two_spin", "--mode", "exact",
                   "--out", str(out))
    assert code == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["converged"] is True
    assert summary["stop_reason"] == "converged"
    assert abs(summary["final"]["mu"] - 2.0) <= 0.05
    assert summary["exact_gap"] == pytest.approx(2.0, abs=1e-9)

    rows = read_csv(out / "iterations.csv")
    assert rows[0] == ["t", "n_steps", "mu_ini", "sigma_ini", "mu_fit",
                       "sigma_fit", "mu_upd", "sigma_upd", "restarted",
                       "fit_iterations", "fit_reason", "fit_attempts"]
    assert len(rows) == summary["iterations"] + 1

    sweep_rows = read_csv(out / "sweeps.csv")
    assert sweep_rows[0] == ["iteration_index", "delta_eps", "p0_sampled",
                             "p0_exact"]
    # 21 grid points per iteration.
    assert len(sweep_rows) == 1 + 21 * summary["iterations"]

    optimizer_rows = read_csv(out / "optimizer_report.csv")
    assert optimizer_rows[0][:3] == ["t", "n_steps", "pre_depth"]


def test_run_is_reproducible_from_echoed_config(tmp_path):
    out_a = tmp_path / "a"
    assert run_cli("run", "--config", "linear_chain", "--seed", "3",
                   "--out", str(out_a)) == 0
    echoed = json.loads((out_a / "summary.json").read_text())["config"]
    echoed["output_dir"] = str(tmp_path / "b")
    config_path = tmp_path / "echo.json"
    config_path.write_text(json.dumps(echoed))
    assert run_cli("run", "--config", str(config_path)) == 0
    text_a = (out_a / "iterations.csv").read_text()
    text_b = (tmp_path / "b" / "iterations.csv").read_text()
    assert text_a == text_b
    summary_a = json.loads((out_a / "summary.json").read_text())
    summary_b = json.loads((tmp_path / "b" / "summary.json").read_text())
    assert summary_a["final"] == summary_b["final"]


def test_invalid_label_exits_one(tmp_path, capsys):
    config = {
        "system": {"n_spins": 3, "couplings": [[1, 2, 1.0], [2, 3, 1.0]]},
        "ground_label": "Q", "excited_label": "D3",
        "prior": {"shape": "gaussian", "mu": 0.0, "sigma": 10.0},
    }
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(config))
    assert run_cli("run", "--config", str(path)) == 1
    err = capsys.readouterr().err
    assert "excited_label" in err


@pytest.mark.parametrize("ground, excited, field", [
    ("Q", "Q", "excited_label"),
    ("Q3", "D1", "ground_label"),
    ("Q", "D3", "excited_label"),
    ("T", "S", "ground_label"),
    ("Q", "S", "excited_label"),
], ids=["same_label", "unknown_ground", "unknown_excited", "ground_spin_count",
        "excited_spin_count"])
def test_label_errors_name_their_field(ground, excited, field):
    raw = {"system": {"n_spins": 3, "couplings": [[1, 2, 1.0], [2, 3, 1.0]]},
           "ground_label": ground, "excited_label": excited,
           "prior": {"shape": "gaussian", "mu": 0.0, "sigma": 10.0}}
    try:
        named_state(raw[field], 3)
        expected = "preparation states are not orthogonal"
    except ValueError as exc:
        expected = str(exc)
    with pytest.raises(cli.ConfigError) as info:
        cli.parse_config(raw)
    assert str(info.value).startswith(f"{field}: {expected}")


def test_run_builds_the_excitation_once(tmp_path, monkeypatch):
    # parse_config validates the labels through the run's cached
    # preparation pair, so the run does not build it again.
    built = []
    build = engine.build_excitation_unitary

    def counted(*args):
        built.append(args)
        return build(*args)

    monkeypatch.setattr(engine, "build_excitation_unitary", counted)
    engine.preparation_pair.cache_clear()
    assert run_cli("run", "--config", "two_spin", "--out", str(tmp_path / "run")) == 0
    assert len(built) == 1


@pytest.mark.parametrize("section, key, value, field", [
    ("estimator", "explicit_schedule", [["a", 3]], "estimator.explicit_schedule[0]"),
    ("estimator", "grid_points", 21.5, "estimator.grid_points"),
    ("system", "couplings", [[1, 2, True]], "system.couplings[0]"),
    ("sampler", "shots", 50.5, "sampler.shots"),
], ids=["string_schedule_time", "fractional_grid_points", "bool_coupling",
        "fractional_shots"])
def test_wrong_json_type_is_a_config_error(tmp_path, capsys, section, key, value, field):
    out = tmp_path / "out"
    config = {
        "system": {"n_spins": 2, "couplings": [[1, 2, 1.0]]},
        "ground_label": "T", "excited_label": "S",
        "prior": {"shape": "gaussian", "mu": 0.0, "sigma": 10.0},
        "sampler": {"mode": "shots"},
        "output_dir": str(out),
    }
    config.setdefault(section, {})[key] = value
    path = tmp_path / "typed.json"
    path.write_text(json.dumps(config))
    assert run_cli("run", "--config", str(path)) == 1
    err = capsys.readouterr().err
    assert f"{field}: expected" in err
    assert "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("section, key, value", [
    (None, "samplr", {"mode": "noisy"}),
    (None, "estimater", {"max_iterations": 1}),
    ("system", "coupling", [[1, 2, 5.0]]),
    ("prior", "sigam", 1.0),
], ids=["top_level_sampler", "top_level_estimator", "system", "prior"])
def test_misspelled_field_is_a_config_error(tmp_path, capsys, section, key, value):
    out = tmp_path / "out"
    config = {
        "system": {"n_spins": 2, "couplings": [[1, 2, 1.0]]},
        "ground_label": "T", "excited_label": "S",
        "prior": {"shape": "gaussian", "mu": 0.0, "sigma": 10.0},
        "sampler": {"mode": "shots"},
    }
    (config if section is None else config[section])[key] = value
    path = tmp_path / "misspelled.json"
    path.write_text(json.dumps(config))
    assert run_cli("run", "--config", str(path), "--out", str(out)) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"config error: {section or 'config'}.{key}: unknown field")
    assert not out.exists()


def test_malformed_json_reports_line(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text('{"system": \n  oops}')
    assert run_cli("oracle", "--config", str(path)) == 1
    assert "line 2" in capsys.readouterr().err


def test_missing_config_lists_bundled(capsys):
    assert run_cli("oracle", "--config", "nope_not_here") == 1
    assert "two_spin" in capsys.readouterr().err


def test_oracle_linear_chain(capsys):
    assert run_cli("oracle", "--config", "linear_chain") == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["gap"]["value"] == pytest.approx(1.0, abs=1e-9)
    assert len(payload["eigenvalues"]) == 8


def test_oracle_asymmetric_chain_full_precision(capsys):
    assert run_cli("oracle", "--config", "asymmetric_chain") == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["gap"]["value"] == pytest.approx(3.153565, abs=1e-5)


def test_oracle_nonfrustrated_d1(capsys):
    assert run_cli("oracle", "--config", "nonfrustrated_triangle_d1") == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["gap"]["value"] == pytest.approx(3.0, abs=1e-9)


def test_schedule_override(tmp_path):
    out = tmp_path / "sched"
    code = run_cli("run", "--config", "two_spin", "--mode", "exact",
                   "--schedule", "0.2:1,0.4:1,0.8:1,2.4:1", "--out", str(out))
    assert code == 0
    rows = read_csv(out / "iterations.csv")
    assert [row[0] for row in rows[1:]] == ["0.2", "0.4", "0.8", "2.4"]


@pytest.mark.parametrize("estimator, sampler, flags, message", [
    ({}, {}, ["--schedule", "0.5:0"], "--schedule: bad schedule entry (0.5, 0)"),
    ({}, {}, ["--shots", "0"], "--shots: expected a positive integer"),
    ({"evolution": "exact"}, {}, ["--mode", "noisy"], "--mode: noisy sampling requires"),
    ({"evolution": "exact"}, {"mode": "noisy"}, [], "sampler.mode: noisy sampling requires"),
    ({"fit_retry_limit": 0}, {}, [], "estimator: fit_retry_limit must be at least 1"),
    ({"initial_t": -0.2}, {}, [], "estimator: initial_t must be positive"),
    ({}, {"seed": -1}, [], "sampler: seed must be non-negative"),
    ({}, {}, ["--seed", "-1"], "--seed: seed must be non-negative"),
    ({"steps_per_unit_time": -5}, {}, [], "estimator: steps_per_unit_time must be positive"),
    ({"steps_per_unit_time": 0}, {}, [], "estimator: steps_per_unit_time must be positive"),
    ({"time_growth_factor": 0}, {}, [], "estimator: time_growth_factor must be positive"),
    ({"max_iterations": 0}, {}, [], "estimator: max_iterations must be at least 1"),
    ({"restart_limit": 0}, {}, [], "estimator: restart_limit must be at least 1"),
], ids=["zero_step_schedule", "zero_shots", "noisy_mode_flag", "noisy_mode_field",
        "zero_fit_retries", "negative_initial_t", "negative_seed_field",
        "negative_seed_flag", "negative_steps_per_unit_time", "zero_steps_per_unit_time",
        "zero_time_growth_factor", "zero_max_iterations", "zero_restart_limit"])
def test_bad_override_is_a_config_error(tmp_path, capsys, estimator, sampler, flags,
                                        message):
    out = tmp_path / "out"
    config = {
        "system": {"n_spins": 2, "couplings": [[1, 2, 1.0]]},
        "ground_label": "T", "excited_label": "S",
        "prior": {"shape": "gaussian", "mu": 0.0, "sigma": 10.0},
        "estimator": estimator,
        "sampler": {"mode": "shots", **sampler},
    }
    path = tmp_path / "override.json"
    path.write_text(json.dumps(config))
    assert run_cli("run", "--config", str(path), "--out", str(out), *flags) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"config error: {message}")
    assert "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("section, key, value, flags, message", [
    ("prior", "mu", float("nan"), [], "prior.mu: expected a finite number, got nan"),
    ("estimator", "e_thre", float("inf"), [],
     "estimator.e_thre: expected a finite number, got inf"),
    ("system", "couplings", [[1, 2, float("nan")]], [],
     "system.couplings[0]: expected a finite number, got nan"),
    ("estimator", "explicit_schedule", [[float("-inf"), 3]], [],
     "estimator.explicit_schedule[0]: expected a finite number, got -inf"),
    (None, None, None, ["--schedule", "nan:3"], "--schedule: bad schedule entry (nan, 3)"),
], ids=["nan_prior_mu", "infinite_e_thre", "nan_coupling", "infinite_schedule_time",
        "nan_schedule_flag"])
def test_non_finite_number_is_a_config_error(tmp_path, capsys, section, key, value,
                                             flags, message):
    # Python's json reads NaN and Infinity; no field takes them.
    out = tmp_path / "out"
    config = {
        "system": {"n_spins": 2, "couplings": [[1, 2, 1.0]]},
        "ground_label": "T", "excited_label": "S",
        "prior": {"shape": "gaussian", "mu": 0.0, "sigma": 10.0},
        "sampler": {"mode": "shots"},
    }
    if section is not None:
        config.setdefault(section, {})[key] = value
    path = tmp_path / "finite.json"
    path.write_text(json.dumps(config))
    assert run_cli("run", "--config", str(path), "--out", str(out), *flags) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"config error: {message}")
    assert "Traceback" not in err
    assert not out.exists()


def test_iterations_csv_reports_each_fit(tmp_path, monkeypatch):
    out = tmp_path / "run"
    assert run_cli("run", "--config", "replay_linear_chain", "--seed", "1",
                   "--out", str(out)) == 0
    rows = [row[-3:] for row in read_csv(out / "iterations.csv")]
    assert rows[0] == ["fit_iterations", "fit_reason", "fit_attempts"]
    assert len(rows) == 5
    assert all(reason == "converged" and 1 <= int(steps) <= 30 and attempts == "1"
               for steps, reason, attempts in rows[1:])
    assert json.loads((out / "summary.json").read_text())["stop_reason"] == "converged"

    # A fit that never settles ends the run, after every retry; its row
    # says why, and the summary says how the run ended.
    monkeypatch.setattr(fitting, "MAX_ITERATIONS", 1)
    assert run_cli("run", "--config", "replay_linear_chain", "--seed", "1",
                   "--out", str(out)) == 2
    assert [row[-3:] for row in read_csv(out / "iterations.csv")[1:]] == [
        ["1", "not_settled", "3"]]
    assert json.loads((out / "summary.json").read_text())["stop_reason"] == "fit_failed"


def test_report_reuses_the_run_blocks(tmp_path, monkeypatch):
    # optimizer_report.csv is counted from qubit supports, so writing it
    # builds and reads no evolution block; the run itself builds one block
    # per distinct (t, n_steps).
    write_report = cli._write_optimizer_csv
    block_calls = []

    def counted(*args):
        before = evolution_block.cache_info()
        write_report(*args)
        block_calls.append(evolution_block.cache_info() != before)

    monkeypatch.setattr(cli, "_write_optimizer_csv", counted)
    evolution_block.cache_clear()
    out = tmp_path / "run"
    assert run_cli("run", "--config", "linear_chain", "--out", str(out)) == 0
    pairs = {tuple(row[:2]) for row in read_csv(out / "iterations.csv")[1:]}
    assert len(read_csv(out / "optimizer_report.csv")) == 1 + len(pairs)
    assert evolution_block.cache_info().misses == len(pairs)
    assert block_calls == [False]


def test_main_reuses_its_parser_across_calls(tmp_path):
    # One parser serves every call in the process; no flag of one call
    # carries over into the next.
    first, second = tmp_path / "first", tmp_path / "second"
    assert run_cli("run", "--config", "two_spin", "--seed", "5", "--mode", "noisy",
                   "--schedule", "0.2:30", "--out", str(first)) == 2  # schedule_end
    flagged = json.loads((first / "summary.json").read_text())
    assert (flagged["seed"], flagged["config"]["sampler"]["mode"]) == (5, "noisy")
    assert run_cli("run", "--config", "two_spin", "--out", str(second)) == 0
    assert build_parser() is build_parser()
    summary = json.loads((second / "summary.json").read_text())
    expected = echo_config(load_config("two_spin"))
    expected["output_dir"] = str(second)
    assert summary["config"] == expected
    assert summary["seed"] == expected["sampler"]["seed"] == 11
    assert summary["config"]["sampler"]["mode"] == "shots"
    assert summary["config"]["estimator"]["explicit_schedule"] is None


def _csv_writer_text(header, rows):
    buffer = io.StringIO(newline="")
    writer = csv.writer(buffer)
    writer.writerow(header)
    writer.writerows(rows)
    return buffer.getvalue()


@pytest.mark.parametrize("flags", [["--config", "linear_chain", "--mode", "exact"],
                                   ["--config", "frustrated_triangle", "--mode", "noisy",
                                    "--seed", "3"]], ids=["exact", "noisy"])
def test_artifacts_are_what_csv_writer_writes(tmp_path, monkeypatch, flags):
    # Each CSV is written in one call; csv.writer, given the same rows with
    # floats as their repr, is the reference for its bytes.
    run_estimation, results = cli.run_estimation, []

    def kept(*args):
        results.append(run_estimation(*args))
        return results[-1]

    monkeypatch.setattr(cli, "run_estimation", kept)
    out = tmp_path / "run"
    assert run_cli("run", *flags, "--out", str(out)) in (0, 2)
    trace, system = results[0].trace, load_config(flags[1])["system"]
    iterations = _csv_writer_text(
        ["t", "n_steps", "mu_ini", "sigma_ini", "mu_fit", "sigma_fit", "mu_upd",
         "sigma_upd", "restarted", "fit_iterations", "fit_reason", "fit_attempts"],
        [[repr(row.t), row.n_steps, repr(row.prior.mu), repr(row.prior.sigma),
          repr(row.fit.mu), repr(row.fit.sigma), repr(row.posterior.mu),
          repr(row.posterior.sigma), "true" if row.restarted else "false",
          row.fit.iterations, row.fit.reason, row.fit_attempts] for row in trace])
    sweeps = _csv_writer_text(
        ["iteration_index", "delta_eps", "p0_sampled", "p0_exact"],
        [[index, repr(point.delta_eps), repr(point.p0), repr(point.p0_exact)]
         for index, row in enumerate(trace) for point in row.points])
    report_rows = []
    for t, n_steps in dict.fromkeys((row.t, row.n_steps) for row in trace):
        literal = trotter_circuit(system, TrotterPlan(t, n_steps))
        pre = cost_report(system.n_spins, [gate.targets for gate in literal.gates])
        block = Circuit(system.n_spins, [Gate.register(
            range(system.n_spins), evolution_block(system, t, "trotter", n_steps))])
        post = cost_report(system.n_spins, [gate.targets for gate in block.gates])
        report_rows.append([repr(t), n_steps, pre.depth, pre.two_qubit_count,
                            pre.gate_count, post.depth, post.two_qubit_count,
                            post.gate_count])
    report = _csv_writer_text(
        ["t", "n_steps", "pre_depth", "pre_two_qubit_count", "pre_gate_count",
         "post_depth", "post_two_qubit_count", "post_gate_count"], report_rows)
    for name, text in (("iterations.csv", iterations), ("sweeps.csv", sweeps),
                       ("optimizer_report.csv", report)):
        assert (out / name).read_bytes() == text.encode(), name


def test_nonconvergence_exits_two(tmp_path):
    # A single wide-window iteration cannot reach the threshold.
    config = {
        "system": {"n_spins": 2, "couplings": [[1, 2, 1.0]]},
        "ground_label": "T", "excited_label": "S",
        "prior": {"shape": "gaussian", "mu": 0.0, "sigma": 10.0},
        "estimator": {"max_iterations": 1},
        "sampler": {"mode": "exact"},
        "output_dir": str(tmp_path / "short"),
    }
    path = tmp_path / "short.json"
    path.write_text(json.dumps(config))
    assert run_cli("run", "--config", str(path)) == 2
    summary = json.loads((tmp_path / "short" / "summary.json").read_text())
    assert summary["converged"] is False
    assert summary["stop_reason"] == "max_iterations"


def test_optimize_writes_report(tmp_path):
    out = tmp_path / "opt"
    assert run_cli("optimize", "--config", "replay_linear_chain",
                   "--out", str(out)) == 0
    rows = read_csv(out / "optimizer_report.csv")
    # Schedule rows, constant post-collapse columns.
    assert len(rows) == 5
    post_columns = {tuple(row[5:]) for row in rows[1:]}
    assert len(post_columns) == 1
