"""Positivity-preserving MPRK time integration with entropy relaxation.

Exported: what defining and running a problem needs, and the errors a
run raises; everything else is imported from its module."""

__version__ = "0.1.0"

from .control import IntegrationError, integrate
from .linalg import SingularMatrixError
from .pdrs import (Exchange, ExchangePattern, NonFiniteStateError, PdrsSystem,
                   PositivityError, RateSet)
from .problems import make_problem
from .relaxation import EntropyFunctional, RelaxConfig
from .schemes import (MpStepper, SchemeParameterError, UnsupportedSchemeError,
                      build_scheme)

__all__ = [
    "EntropyFunctional", "Exchange", "ExchangePattern", "PdrsSystem",
    "RateSet", "MpStepper", "build_scheme", "make_problem", "RelaxConfig",
    "integrate", "IntegrationError", "NonFiniteStateError", "PositivityError",
    "SingularMatrixError", "SchemeParameterError", "UnsupportedSchemeError",
]
