"""Exponential-integrator finite element solver for semilinear parabolic
equations u_t = D*lap(u) + f(t, u) on rectangular tensor-product grids.

The spatial mass/stiffness pairs diagonalize simultaneously in sine or
Fourier bases, so each time step costs a handful of fast transforms plus
entrywise work.  See the README for the CLI and config format.
"""

from .analysis import (StudyRow, TimeSeriesObserver, convergence_study,
                       discrete_energy, error_norms, sup_norm, timing_study)
from .assembly import LoadContext, initial_state, transformed_load
from .mesh import (BoundaryKind, Dirichlet, HomogeneousDirichlet, Partition1D,
                   Periodic, TensorMesh, dof_shape)
from .operator import DiagonalizedOperator, build_operator, phi, phi_tensor
from .problems import (NonlinearityDomainError, Problem,
                       builtin_allen_cahn_wave, builtin_flory_huggins,
                       builtin_linear_rd, mesh_for)
from .stepper import (SchemeConfig, SolverState, exp_euler_step, exp_rk2_step,
                      run)
from .transforms import (axis_spectrum, forward_transform, inverse_transform,
                         modal_shape)

__version__ = "0.1.0"

__all__ = [
    "BoundaryKind", "Dirichlet", "DiagonalizedOperator", "HomogeneousDirichlet",
    "LoadContext", "NonlinearityDomainError", "Partition1D", "Periodic",
    "Problem", "SchemeConfig", "SolverState",
    "StudyRow", "TensorMesh", "TimeSeriesObserver",
    "axis_spectrum", "build_operator", "builtin_allen_cahn_wave",
    "builtin_flory_huggins", "builtin_linear_rd", "convergence_study",
    "discrete_energy", "dof_shape", "error_norms", "exp_euler_step",
    "exp_rk2_step", "forward_transform", "initial_state", "inverse_transform",
    "mesh_for", "modal_shape", "phi", "phi_tensor", "run", "sup_norm",
    "timing_study", "transformed_load",
]
