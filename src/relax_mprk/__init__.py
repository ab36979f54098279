"""Positivity-preserving MPRK time integration with entropy relaxation."""

__version__ = "0.1.0"

from .control import (ControllerState, IntegrationError, Trajectory,
                      integrate, interp_state, pid_update, relax_adapt)
from .linalg import SingularMatrixError, lu_solve
from .means import mean_arith, mean_geo, mean_harm, mean_log
from .pdrs import (NonFiniteStateError, PdrsSystem, PositivityError, RateSet,
                   eval_rhs)
from .problems import ProblemDescriptor, barenblatt, make_problem
from .relaxation import (EntropyFunctional, RelaxConfig, RelaxOutcome,
                         entropy_estimate, relax_step, solve_scalar)
from .schemes import (MpScheme, MpStepper, SchemeParameterError, StepRecord,
                      UnsupportedSchemeError, build_scheme, gamma_update,
                      gamma_update_derivative, sigma_bar, step)

__all__ = [
    "ControllerState", "EntropyFunctional", "IntegrationError", "MpScheme",
    "MpStepper", "NonFiniteStateError", "PdrsSystem", "PositivityError",
    "ProblemDescriptor", "RateSet", "RelaxConfig", "RelaxOutcome",
    "SchemeParameterError", "SingularMatrixError", "StepRecord",
    "Trajectory", "UnsupportedSchemeError", "barenblatt", "build_scheme",
    "entropy_estimate", "eval_rhs", "gamma_update", "gamma_update_derivative",
    "integrate", "interp_state", "lu_solve", "make_problem", "mean_arith",
    "mean_geo", "mean_harm", "mean_log", "pid_update", "relax_adapt",
    "relax_step", "sigma_bar", "solve_scalar", "step",
]
