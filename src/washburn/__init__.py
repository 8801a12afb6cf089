"""Capillary-rise dynamics with wall slip.

Nondimensionalization of the slip-aware column model, adaptive trajectory
integration in the square-height coordinates, a Volterra fixed-point
solver, reduced flow regimes with closed-form oracles, and linear plus
Lyapunov-based stability analysis of the equilibrium column.

The exports load on first use (PEP 562), and `_rk`, `integrate`,
`dynamics`, `stability` and `_format` import numpy only inside their
array paths, so `import washburn`, the CLI's scalar commands, its
`simulate` and `regime` (which sample on Python floats through
`integrate.integrate_floats` and `integrate.integrate_regime_floats`) and
its `classify` (which solves through `integrate.solve` and samples
nothing) do not import numpy.
"""
import sys as _sys
from importlib import import_module as _import_module
from types import ModuleType as _ModuleType

__version__ = "0.12.0"

_EXPORTS = {
    "dynamics": ("RegimeCase", "RegimeSpec", "State", "energy", "rhs_u"),
    "errors": ("ConsistencyError", "ConvergenceError", "DomainError", "HorizonError",
               "InconclusiveError", "NumericError", "SingularityError",
               "StepSizeUnderflowError", "WashburnError"),
    "integrate": ("Crossing", "Run", "Trajectory", "continuous_dependence", "detect_crossings",
                  "integrate", "integrate_regime", "regime_oracle_residuals", "solve"),
    "params": ("ModelParams", "PhysicalParams", "critical_omega", "H_from_u",
               "nondimensionalize", "u_from_H"),
    "stability": ("ApproachKind", "ApproachReport", "BasinAudit", "BasinSpec", "PointKind",
                  "StabilityReport", "audit_trajectory", "basin", "classify_approach",
                  "linearize", "lyapunov"),
    "volterra": ("GridFunction", "PicardResult", "apply_T", "bracket_lower",
                 "bracket_upper", "check_scaling_inequality", "order_interval_check",
                 "picard_solve", "uniqueness_window"),
}
_SOURCE = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_SOURCE)


def __getattr__(name):
    module = _SOURCE.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(_import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))


class _Package(_ModuleType):
    """Keeps an export bound when a submodule of the same name loads.

    Loading washburn.integrate sets the package attribute `integrate` to
    that module; the exported name is the function `integrate`.
    """

    def __setattr__(self, name, value):
        if not (name in _SOURCE and isinstance(value, _ModuleType)):
            super().__setattr__(name, value)


_sys.modules[__name__].__class__ = _Package
