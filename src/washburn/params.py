"""Dimensional inputs and the dimensionless model constants.

The capillary column is described either by its physical fluid/pipe data
(SI units) or directly by the dimensionless triple (omega, beta, alpha):
omega weighs inertia against viscosity and gravity, beta is the wall-slip
parameter (beta = 1 means no slip), and alpha is the initial height as a
fraction of the equilibrium height.
"""
from __future__ import annotations

import math
import sys
import warnings
from typing import NamedTuple

from .errors import ConsistencyError, DomainError

# Trajectories are confined to u <= 9/8; alpha beyond 3/2 is outside the
# range covered by the analysis and is rejected rather than clamped.
ALPHA_MAX = 1.5
U_BOUND = 9.0 / 8.0
U_EQUILIBRIUM = 0.5

# Intervals over the horizon in a run's grid (a trajectory's output samples
# or a Picard solve's nodes): the default without a step, and the cap.
DEFAULT_INTERVALS = 4096
MAX_INTERVALS = 2**20

# The other defaults and caps of a run, kept here with the grid's so that
# the CLI can state them without importing a solver: the trajectory
# tolerances (absolute, relative), the cap on each and rel's floor (scipy's,
# 100 machine epsilons), the default trajectory horizon in damping e-folds,
# the reduced-regime horizon and its cap, Picard's tolerance and iteration
# cap, and the RK step budget, the accepted plus rejected steps one solve
# may take. Each accepted step keeps its start time, u and five stage pairs,
# 96 B in one float store (about 12.6 MB at 2^17 steps), and each solve one
# extra 96 B record for its end state, so the budget bounds time and memory
# alike. Above MAX_TOLERANCE the controller lets u leave the paper's bounds
# [0, 9/8]: at rel_tol 0.05 or abs_tol 0.01 some runs from rest do.
DEFAULT_TOLERANCES = (1e-10, 1e-8)
MAX_TOLERANCE = 1e-3
MIN_REL_TOL = 100 * sys.float_info.epsilon
HORIZON_EFOLDS = 30.0
REGIME_DEFAULT_HORIZON = 20.0
REGIME_HORIZON_CAP = 1e3
DEFAULT_TOL = 1e-10
DEFAULT_MAX_ITER = 10000
MAX_STEPS = 2**17

# The initial column is assumed short compared to the equilibrium height;
# larger ratios are still integrated but draw a warning.
SMALL_ALPHA_GUIDELINE = 0.1

_OMEGA_CONSISTENCY_RTOL = 1e-12

PHYSICAL_JSON_KEYS = ("rho", "mu", "gamma", "theta_deg", "g", "R", "L", "h0")
_SCALED_KEYS = ("rho", "mu", "gamma", "g", "R")  # the inputs every scale is built from
# The most characters of an unexpected key's repr that an error message repeats:
# an input may hold thousands of keys, each as long as the file.
KEY_ECHO_LIMIT = 40
# What `json.loads` makes of each JSON type that is not a number.
_JSON_TYPES = {str: "string", list: "array", dict: "object", bool: "boolean",
               type(None): "null"}


def check_positive(name: str, value: float):
    """Reject a value that is not finite and > 0 (NaN included)."""
    if not 0.0 < value < math.inf:
        raise DomainError(name, f"must be finite and > 0, got {value!r}")


def check_nonnegative(name: str, value: float):
    """Reject a value that is not finite and >= 0 (NaN included)."""
    if not 0.0 <= value < math.inf:
        raise DomainError(name, f"must be finite and >= 0, got {value!r}")


def check_alpha(alpha: float):
    """Reject an initial height ratio outside [0, ALPHA_MAX] (NaN included)."""
    if not 0.0 <= alpha <= ALPHA_MAX:
        raise DomainError("alpha", f"must lie in [0, {ALPHA_MAX}], got {alpha!r}")


class _PhysicalParamsFields(NamedTuple):
    rho: float
    mu: float
    gamma: float
    theta: float
    g: float
    R: float
    L: float
    h0: float


class PhysicalParams(_PhysicalParamsFields):
    """Dimensional description of the fluid and pipe (SI units).

    rho: mass density [kg/m^3]; mu: dynamic viscosity [Pa s]; gamma:
    surface tension [N/m]; theta: contact angle [rad] in [0, pi/2);
    g: gravity [m/s^2]; R: pipe radius [m]; L: slip length [m];
    h0: initial column height [m].
    """

    __slots__ = ()

    def __new__(cls, rho: float, mu: float, gamma: float, theta: float, g: float, R: float,
                L: float = 0.0, h0: float = 0.0):
        for name, value in (("rho", rho), ("mu", mu), ("gamma", gamma), ("g", g), ("R", R)):
            check_positive(name, value)
        if not 0.0 <= theta < math.pi / 2.0:
            raise DomainError("theta", f"must lie in [0, pi/2), got {theta!r}")
        check_nonnegative("L", L)
        check_nonnegative("h0", h0)
        return super().__new__(cls, rho, mu, gamma, theta, g, R, L, h0)


class _ModelParamsFields(NamedTuple):
    omega: float
    beta: float
    alpha: float
    h_e: float | None
    tau: float | None
    Oh: float | None
    Bo: float | None


class ModelParams(_ModelParamsFields):
    """Dimensionless model constants, optionally with the physical scales.

    The physical fields (h_e, tau, Oh, Bo) are populated when the instance
    comes from `nondimensionalize`; a purely dimensionless run leaves them
    as None.
    """

    __slots__ = ()

    def __new__(cls, omega: float, beta: float, alpha: float, h_e: float | None = None,
                tau: float | None = None, Oh: float | None = None, Bo: float | None = None):
        check_positive("omega", omega)
        if not 0.0 < beta <= 1.0:
            raise DomainError("beta", f"must lie in (0, 1], got {beta!r}")
        check_alpha(alpha)
        for name, value in (("h_e", h_e), ("tau", tau), ("Oh", Oh), ("Bo", Bo)):
            if value is not None:
                check_positive(name, value)
        return super().__new__(cls, omega, beta, alpha, h_e, tau, Oh, Bo)

    @property
    def damping(self) -> float:
        """Damping coefficient beta/sqrt(omega) of the transformed model."""
        return self.beta / math.sqrt(self.omega)

    @property
    def omega_star(self) -> float:
        """Critical omega separating monotone from oscillatory settling."""
        return critical_omega(self.beta)


def _farthest_from_one(p: PhysicalParams) -> str:
    """The input among rho, mu, gamma, g, R farthest from 1 in magnitude."""
    return max(_SCALED_KEYS, key=lambda k: abs(math.log(getattr(p, k))))


def nondimensionalize(p: PhysicalParams) -> ModelParams:
    """Convert physical pipe/fluid data into the dimensionless model.

    h_e = 2 gamma cos(theta) / (rho g R) is the equilibrium height,
    tau = 8 mu h_e / (rho g R^2) the viscous time scale, and
    omega = h_e / (g tau^2). omega is cross-checked against its
    Bond/Ohnesorge form (Bo/Oh)^2 / (128 cos theta). Inputs that take a
    scale out of the float range (to inf or 0), or a product below the
    smallest normal float, where the two forms lose different digits and
    disagree, raise DomainError naming the input farthest from 1 in
    magnitude.
    """
    cos_t = math.cos(p.theta)
    try:
        # One product per name, in the formulas' order of operations, so that
        # a product that went subnormal can be told from an internal bug.
        two_gamma_cos = 2.0 * p.gamma * cos_t
        rho_g = p.rho * p.g
        rho_g_R = rho_g * p.R
        R2 = p.R**2
        rho_g_R2 = rho_g * R2
        h_e = two_gamma_cos / rho_g_R
        eight_mu_h_e = 8.0 * p.mu * h_e
        tau = eight_mu_h_e / rho_g_R2
        tau2 = tau**2
        g_tau2 = p.g * tau2
        omega = h_e / g_tau2
        beta = 1.0 / (1.0 + 4.0 * p.L / p.R)
        R_rho = p.R * p.rho
        R_rho_gamma = R_rho * p.gamma
        Oh = p.mu / math.sqrt(R_rho_gamma)
        Bo = rho_g_R2 / p.gamma
        Bo_Oh = Bo / Oh
        Bo_Oh2 = Bo_Oh**2
        omega_check = Bo_Oh2 / (128.0 * cos_t)
        in_range = all(0.0 < x < math.inf for x in (h_e, tau, omega, Oh, Bo, omega_check))
    except (OverflowError, ZeroDivisionError):
        in_range = False
    if not in_range:
        # A scale overflowed or underflowed: blame the input farthest from 1.
        key = _farthest_from_one(p)
        raise DomainError(key, f"{getattr(p, key)!r} takes the scales h_e, tau, omega, "
                               "Oh and Bo out of the float range")
    if abs(omega - omega_check) > _OMEGA_CONSISTENCY_RTOL * abs(omega):
        smallest = min(p.rho, p.mu, p.gamma, p.g, p.R, two_gamma_cos, rho_g, rho_g_R, R2,
                       rho_g_R2, h_e, eight_mu_h_e, tau, tau2, g_tau2, omega, R_rho,
                       R_rho_gamma, Oh, Bo, Bo_Oh, Bo_Oh2, omega_check)
        if smallest < sys.float_info.min:
            key = _farthest_from_one(p)
            raise DomainError(key, f"{getattr(p, key)!r} takes a product of the scales "
                                   "h_e, tau, omega, Oh and Bo below the normal float range")
        raise ConsistencyError(
            f"omega formulas disagree: {omega!r} (direct) vs "
            f"{omega_check!r} (Bo/Oh form)"
        )
    alpha = p.h0 / h_e
    if alpha > ALPHA_MAX:
        raise DomainError(
            "h0", f"initial height gives alpha = {alpha:.6g} > {ALPHA_MAX}"
        )
    if alpha > SMALL_ALPHA_GUIDELINE:
        warnings.warn(
            f"alpha = h0/h_e = {alpha:.6g} is not small; the model assumes "
            "an initial column much shorter than the equilibrium height",
            UserWarning,
            stacklevel=2,
        )
    return ModelParams(omega=omega, beta=beta, alpha=alpha,
                       h_e=h_e, tau=tau, Oh=Oh, Bo=Bo)


def critical_omega(beta: float) -> float:
    """Critical omega* = beta^2/4 where the settling style changes."""
    check_positive("beta", beta)
    return beta * beta / 4.0


def u_from_H(H: float) -> float:
    """Transformed height u = H^2/2."""
    if H < 0.0:
        raise DomainError("H", f"must be >= 0, got {H!r}")
    return 0.5 * H * H


def H_from_u(u: float) -> float:
    """Column height H = sqrt(2u)."""
    if u < 0.0:
        raise DomainError("u", f"must be >= 0, got {u!r}")
    return math.sqrt(2.0 * u)


def physical_params_from_json(obj: dict) -> PhysicalParams:
    """Build PhysicalParams from the JSON input object.

    The object must have exactly the keys rho, mu, gamma, theta_deg, g, R,
    L, h0 (SI units; the contact angle in degrees). A refusal names the
    missing keys, and counts the unexpected ones and shows the first in
    sorted order, its repr clipped to KEY_ECHO_LIMIT characters.
    """
    if not isinstance(obj, dict):
        raise DomainError("input", "expected a JSON object")
    expected = set(PHYSICAL_JSON_KEYS)
    got = set(obj)
    if got != expected:
        missing = sorted(expected - got)
        extra = got - expected
        parts = []
        if missing:
            parts.append(f"missing keys {missing}")
        if extra:
            first = repr(min(extra))
            if len(first) > KEY_ECHO_LIMIT:
                first = first[:KEY_ECHO_LIMIT] + "..."
            parts.append(f"unexpected keys: {len(extra)}, first {first}")
        raise DomainError("input", "; ".join(parts))
    values = {}
    for key in PHYSICAL_JSON_KEYS:
        value = obj[key]
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            # Its JSON type, not the value, which can be as long as the file.
            kind = _JSON_TYPES.get(type(value), type(value).__name__)
            raise DomainError(key, f"must be a number, got a JSON {kind}")
        try:
            values[key] = float(value)
        except OverflowError:
            raise DomainError(key, "must be a number, got an integer too large "
                                   "for a float") from None
    theta = math.radians(values.pop("theta_deg"))
    return PhysicalParams(theta=theta, **values)


def model_params_report(mp: ModelParams) -> dict:
    """Flat report dict with every ModelParams field, plus omega_star."""
    return {**mp._asdict(), "omega_star": mp.omega_star}
