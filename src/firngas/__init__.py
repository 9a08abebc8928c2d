"""firngas: trace-gas transport in polar firn.

P1 finite elements on the rescaled depth interval, implicit Euler in time,
with computable admissibility diagnostics and an independent quadrature /
dense-linear-algebra oracle for verification.
"""

from .errors import (AssumptionError, ConfigError, DomainError, FirngasError,
                     SingularMatrixError, TimeStepError, ValidationError)
from .mesh import Mesh, build_uniform, read_mesh_csv
from .model import (AtmosphereSeries, CoefficientProfile, ModelParams,
                    RescaledContext, derive_coefficients, rescale)
from .solver import Trajectory, run

__version__ = "0.1.0"

__all__ = [
    "AssumptionError", "ConfigError", "DomainError", "FirngasError",
    "SingularMatrixError", "TimeStepError", "ValidationError",
    "Mesh", "build_uniform", "read_mesh_csv",
    "AtmosphereSeries", "CoefficientProfile", "ModelParams",
    "RescaledContext", "derive_coefficients", "rescale",
    "Trajectory", "run",
    "__version__",
]
