"""Capillary-rise dynamics with wall slip.

Nondimensionalization of the slip-aware column model, adaptive trajectory
integration in the square-height coordinates, a Volterra fixed-point
solver, reduced flow regimes with closed-form oracles, and linear plus
Lyapunov-based stability analysis of the equilibrium column.
"""

__version__ = "0.1.0"

from .dynamics import RegimeCase, RegimeSpec, State, energy, rhs_H, rhs_u
from .errors import (ConsistencyError, ConvergenceError, DomainError,
                     HorizonError, InconclusiveError, NumericError,
                     SingularityError, StepSizeUnderflowError, WashburnError)
from .integrate import (Crossing, Trajectory, continuous_dependence,
                        detect_crossings, integrate, integrate_regime,
                        regime_oracle_residuals)
from .params import (ModelParams, PhysicalParams, critical_omega, H_from_u,
                     nondimensionalize, u_from_H)
from .stability import (ApproachKind, ApproachReport, BasinAudit, BasinSpec,
                        PointKind, StabilityReport, audit_trajectory, basin,
                        classify_approach, linearize, lyapunov)
from .volterra import (GridFunction, PicardResult, apply_T, bracket_lower,
                       bracket_upper, check_scaling_inequality,
                       order_interval_check, picard_solve, uniqueness_window)

__all__ = [
    "ApproachKind", "ApproachReport", "BasinAudit", "BasinSpec",
    "ConsistencyError", "ConvergenceError", "Crossing", "DomainError",
    "GridFunction", "H_from_u", "HorizonError", "InconclusiveError",
    "ModelParams", "NumericError", "PhysicalParams", "PicardResult",
    "PointKind", "RegimeCase", "RegimeSpec", "SingularityError",
    "StabilityReport", "State", "StepSizeUnderflowError", "Trajectory",
    "WashburnError", "apply_T", "audit_trajectory", "basin",
    "bracket_lower", "bracket_upper", "check_scaling_inequality",
    "classify_approach", "continuous_dependence", "critical_omega",
    "detect_crossings", "energy", "integrate", "integrate_regime",
    "linearize", "lyapunov", "nondimensionalize", "order_interval_check",
    "picard_solve", "regime_oracle_residuals", "rhs_H", "rhs_u", "u_from_H",
    "uniqueness_window",
]
