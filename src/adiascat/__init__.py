"""Adiabatic scattering laboratory for driven chiral channels."""

from ._kernels import backend_name
from .numerics import (Grid, NumericalContractError, SlopeFit,
                       central_derivative, fit_slope, hermitize,
                       ordered_exponential)
from .profiles import GaussianMix, Schedule
from .coherent import (CoherentLabel, StateVector, braket, coherent_state,
                       free_shift, identity_resolution_residual, label_box,
                       overlap, plane_wave_amplitude)
from .network import (HermitianOnShell, MatrixPotential, OnShellMatrix,
                      RankOne, ScatterModel, apply_h0, apply_hamiltonian,
                      clearance_T, dynamical_S, dynamical_S_adjoint, frozen,
                      frozen_S_apply, frozen_energy_shift_onshell,
                      intertwine_residual, omega_dot_residual, on_shell_S,
                      propagate, rankone_resolvent, rankone_resolvent_exact,
                      wave_operator, wigner_delay)
from .soluble import soluble_potential
from .adiabatic import (ErrorReport, adiabatic_tau, combined_report,
                        energy_shift_operator, onshell_vs_frozen,
                        outgoing_state_check, remainder_exact, rho_fermi,
                        rho_gaussian, rho_polynomial, smeared_frozen_element,
                        thawed_energy_shift_report)
from .experiments import (EXPERIMENTS, Check, ExperimentResult, Row, Setup)
# loaded with the package, as perfbench/tracing.py expects; a package
# with a __main__, so ``python -m adiascat.cli`` does not run it twice
from . import cli  # noqa: F401

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
