"""Exact-diagonalization spectra of the paper's systems against closed forms."""
import numpy as np

from qpde.spin import system_eigensystem, triangle, two_spin_system


def test_two_spin_hamiltonian_spectrum():
    values, _ = system_eigensystem(two_spin_system(1.0))
    assert np.allclose(values, [-0.5, -0.5, -0.5, 1.5], atol=1e-12)


def test_frustrated_triangle_spectrum():
    values, _ = system_eigensystem(triangle(1, 1, 1))
    assert np.allclose(values, [-1.5] * 4 + [1.5] * 4, atol=1e-12)
