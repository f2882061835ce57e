"""Span tracing of qpde's layers, installed from outside the package.

Each hook replaces a function in the module namespace where its caller
looks it up (for example `qpde.engine.fit_gaussian`, which is the name
run_estimation calls), so the package itself is unchanged.  A span holds
its name, start, end and the index of its parent span; spans stay in
memory until `write_csv` is called when the run ends.  A span's self time
is its duration minus the durations of its direct children; calls are
nested and sequential, so children never overlap.

A span is named "<layer>.<operation>"; layers are qpde's modules.
"""
from __future__ import annotations

import collections
import importlib
from time import perf_counter


def _gates_in(args, kwargs, result):
    return len(args[0].gates)


def _gates_out(args, kwargs, result):
    return len(result.gates)


def _shots(args, kwargs, result):
    return kwargs["shots"] if "shots" in kwargs else args[2]


def _converged(args, kwargs, result):
    return int(result.converged)


def _iterations(args, kwargs, result):
    return len(result.trace)


def _restarts(args, kwargs, result):
    return sum(1 for row in result.trace if row.restarted)


#: (module, attribute, span name, {counter: f(args, kwargs, result)}).
#: An attribute of the form "Class.method" is patched on the class.
HOOKS = (
    ("qpde.cli", "main", "cli.main", {}),
    ("qpde.engine", "run_estimation", "engine.run_estimation",
     {"engine.iterations": _iterations, "engine.restarts": _restarts}),
    ("qpde.cli", "run_estimation", "engine.run_estimation",
     {"engine.iterations": _iterations, "engine.restarts": _restarts}),
    ("qpde.engine", "fit_gaussian", "fitting.fit_gaussian",
     {"fitting.converged": _converged}),
    ("qpde.engine", "multiply_gaussians", "fitting.multiply_gaussians", {}),
    ("qpde.engine", "apply_gate", "statevector.apply_gate", {}),
    ("qpde.engine", "ancilla_p0", "statevector.ancilla_p0", {}),
    ("qpde.optimizer", "circuit_unitary", "statevector.circuit_unitary",
     {"statevector.circuit_unitary_gates": _gates_in}),
    ("qpde.engine", "trotter_circuit", "evolution.trotter_circuit",
     {"evolution.gates_built": _gates_out}),
    ("qpde.cli", "trotter_circuit", "evolution.trotter_circuit",
     {"evolution.gates_built": _gates_out}),
    ("qpde.engine", "exact_evolution", "evolution.exact_evolution", {}),
    ("qpde.engine", "collapse_register_block", "optimizer.collapse_register_block",
     {"optimizer.gates_collapsed": _gates_in}),
    ("qpde.cli", "collapse_register_block", "optimizer.collapse_register_block",
     {"optimizer.gates_collapsed": _gates_in}),
    ("qpde.cli", "cost_report", "optimizer.cost_report", {}),
    ("qpde.engine", "exact_gap", "spin.exact_gap", {}),
    ("qpde.engine", "named_state", "spin.named_state", {}),
    ("qpde.cli", "named_state", "spin.named_state", {}),
    ("qpde.evolution", "system_eigensystem", "spin.system_eigensystem", {}),
    ("qpde.spin", "hermitian_eigendecomposition", "linalg.hermitian_eigendecomposition", {}),
    ("qpde.evolution", "hermitian_eigendecomposition",
     "linalg.hermitian_eigendecomposition", {}),
    ("qpde.engine", "EvolutionTrajectorySampler", "sampling.sampler_build", {}),
    ("qpde.sampling", "EvolutionTrajectorySampler.sample_p0", "sampling.trajectory",
     {"sampling.trajectory_shots": _shots}),
    ("qpde.engine", "sample_p0", "sampling.binomial", {}),
    ("qpde.engine", "derived_rng", "sampling.derived_rng", {}),
)


class Tracer:
    """Collects spans and counters while its hooks are installed."""

    def __init__(self):
        self.spans: list[list] = []          # [name, start, end, parent index]
        self.counts: collections.Counter = collections.Counter()
        self._stack: list[int] = []
        self._installed: list[tuple[object, str, object]] = []

    def _wrap(self, name, fn, counters):
        spans, stack, counts = self.spans, self._stack, self.counts

        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(span)
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()
            for counter, measure in counters.items():
                counts[counter] += measure(args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> list[str]:
        """Install every hook whose target exists; return the missing ones."""
        missing = []
        for module_name, attribute, name, counters in HOOKS:
            owner = importlib.import_module(module_name)
            *path, leaf = attribute.split(".")
            for part in path:
                owner = getattr(owner, part, None)
            fn = getattr(owner, leaf, None) if owner is not None else None
            if fn is None:
                missing.append(f"{module_name}.{attribute}")
                continue
            self._installed.append((owner, leaf, fn))
            setattr(owner, leaf, self._wrap(name, fn, counters))
        return missing

    def remove(self) -> None:
        for owner, leaf, fn in reversed(self._installed):
            setattr(owner, leaf, fn)
        self._installed.clear()

    def self_times(self) -> list[float]:
        own = [end - start for _, start, end, _ in self.spans]
        for _, start, end, parent in self.spans:
            if parent >= 0:
                own[parent] -= end - start
        return own

    def layer_metrics(self, wall_s: float) -> dict[str, tuple[float, str]]:
        """Per-layer metrics of the traced spans, as {name: (value, unit)}."""
        own = self.self_times()
        by_name: dict[str, float] = collections.defaultdict(float)
        by_layer: dict[str, float] = collections.defaultdict(float)
        calls: collections.Counter = collections.Counter()
        fit_attempts = 0
        for (name, _, _, parent), seconds in zip(self.spans, own):
            by_name[name] += seconds
            calls[name] += 1
            by_layer[name.split(".")[0]] += seconds
            if name == "fitting.fit_gaussian" and self._has_ancestor(parent, "engine."):
                fit_attempts += 1
        fits = calls["fitting.fit_gaussian"]

        def layer_calls(layer):
            return sum(n for key, n in calls.items() if key.startswith(layer + "."))

        c = self.counts
        return {
            "fitting.self_s": (by_layer["fitting"], "s"),
            "fitting.calls": (fits, "count"),
            "fitting.accept_ratio": (c["fitting.converged"] / fits if fits else 0.0, "ratio"),
            "statevector.apply_gate_s": (by_name["statevector.apply_gate"], "s"),
            "statevector.apply_gate_calls": (calls["statevector.apply_gate"], "count"),
            "statevector.circuit_unitary_s": (by_name["statevector.circuit_unitary"], "s"),
            "statevector.circuit_unitary_gates": (c["statevector.circuit_unitary_gates"], "count"),
            "evolution.self_s": (by_layer["evolution"], "s"),
            "evolution.gates_built": (c["evolution.gates_built"], "count"),
            "optimizer.self_s": (by_layer["optimizer"], "s"),
            "optimizer.gates_collapsed": (c["optimizer.gates_collapsed"], "count"),
            "spin.self_s": (by_layer["spin"], "s"),
            "spin.calls": (layer_calls("spin"), "count"),
            "linalg.self_s": (by_layer["linalg"], "s"),
            "linalg.calls": (layer_calls("linalg"), "count"),
            "sampling.trajectory_s": (by_name["sampling.trajectory"], "s"),
            "sampling.trajectory_shots": (c["sampling.trajectory_shots"], "count"),
            "sampling.sampler_build_s": (by_name["sampling.sampler_build"], "s"),
            "sampling.sampler_builds": (calls["sampling.sampler_build"], "count"),
            "sampling.binomial_s": (by_name["sampling.binomial"], "s"),
            "engine.self_s": (by_layer["engine"], "s"),
            "engine.iterations": (c["engine.iterations"], "count"),
            "engine.restarts": (c["engine.restarts"], "count"),
            "engine.fit_attempts": (fit_attempts, "count"),
            "cli.self_s": (by_layer["cli"], "s"),
            "cli.bytes_written": (c["cli.bytes_written"], "B"),
            "trace.layer_self_s": (sum(by_layer.values()), "s"),
            "trace.wall_s": (wall_s, "s"),
            "trace.spans": (len(self.spans), "count"),
        }

    def _has_ancestor(self, index: int, prefix: str) -> bool:
        while index >= 0:
            if self.spans[index][0].startswith(prefix):
                return True
            index = self.spans[index][3]
        return False

    def write_csv(self, path) -> None:
        with open(path, "w") as handle:
            handle.write("index,name,start_s,end_s,parent\n")
            for index, (name, start, end, parent) in enumerate(self.spans):
                handle.write(f"{index},{name},{start!r},{end!r},{parent}\n")
