"""Gap estimation for small Heisenberg spin systems via ancilla
interferometry, with exact spectra on the total-spin sectors, Trotterized
time evolution collapsed to one register block, and shot/noise sampling."""

from .engine import (EstimationResult, EstimatorConfig, IterationRecord,
                     PriorSpec, SweepPoint, build_excitation_unitary, check_restart,
                     default_steps, next_time, run_estimation, sweep)
from .evolution import evolution_block, exchange_rotations
from .fitting import FitResult, GaussianEstimate, fit_gaussian, multiply_gaussians
from .optimizer import CostReport, cost_report
from .sampling import SamplerSpec, depolarized_overlap, derived_rng, sample_p0
from .spin import (SpinEigenfunction, SpinSystem, assignment, exact_gap, linear_chain,
                   named_state, spin_eigenbasis, spin_eigenfunction, system_eigensystem,
                   triangle, two_spin_system)

__all__ = [name for name in dir() if not name.startswith("_")]
