"""Module boundaries: no module reaches into another's private names."""
import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "qpde"


def test_no_private_cross_module_imports():
    offenders = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and node.level > 0:
                offenders += [f"{path.name}: from .{node.module} import {alias.name}"
                              for alias in node.names if alias.name.startswith("_")]
    assert not offenders


#: Literal references that live in tests/oracles.py, and names deleted
#: because they only repeated the production path.  "Class.name" is a
#: method, property or field.
TEST_ONLY_NAMES = {
    "qpde_circuit", "analytic_p0", "noisy_trajectory_p0", "_random_pauli_gate",
    "apply_gate", "run_circuit", "circuit_unitary", "ancilla_p0", "HADAMARD",
    "phase_shift", "to_spin_eigenbasis", "Statevector.basis_state",
    "Statevector.from_amplitudes", "Statevector.tensor",
    "qpde_p0", "inner_product", "_apply_gate_raw", "Gate.controlled", "Gate.control",
    "Gate.support", "Gate.single",
    "TWO_QUBIT_PAULIS", "_pauli_basis", "_pauli_transfer", "PAULI_I", "PAULI_X",
    "PAULI_Y", "PAULI_Z", "apply_matrix", "gaussian_model",
    "trotter_circuit", "TrotterPlan", "Circuit",
    "Gate", "Gate.two", "Gate.register", "Statevector", "SWAP", "pair_term_unitary",
    "SpinEigenfunction.to_statevector", "_SweepEvaluator", "SpectrumReport.labeled_gaps",
    "SpectrumReport", "reference_gap", "trotter_step_unitary", "_exchange_rotation",
    "build_hamiltonian", "spin_squared", "spin_z", "exact_evolution", "MAX_TROTTER_SPINS",
}


def _defined_names(body, prefix=""):
    for node in body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield prefix + node.name
            if isinstance(node, ast.ClassDef):
                yield from _defined_names(node.body, f"{node.name}.")
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                for name in ast.walk(target):
                    if isinstance(name, ast.Name):
                        yield prefix + name.id


def test_test_oracles_stay_out_of_the_package():
    offenders = [f"{path.name}: {name}" for path in sorted(SRC.glob("*.py"))
                 for name in _defined_names(ast.parse(path.read_text()).body)
                 if name in TEST_ONLY_NAMES]
    assert not offenders
