"""Stability analysis of the equilibrium (u, v) = (1/2, 0).

Linearization gives eigenvalues -(beta/(2 sqrt(omega)))(1 +- sqrt(1 - 4
omega/beta^2)); the sign of the discriminant classifies the point as a
stable node, spiral, or (at omega = beta^2/4) inflected node. The
Lyapunov function V = E + 1/6 (`dynamics.lyapunov_columns`, beside the
energy) is evaluated through a factored form near the equilibrium to avoid
cancellation, and its sublevel set {V <= C} provides the basin of
attraction for each admissible starting height.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

from . import dynamics, params as params_module
from .dynamics import _lyapunov_float, energy
from .dynamics import lyapunov_columns  # noqa: F401  (also read from this module)
from .errors import ConsistencyError, DomainError, InconclusiveError
from .params import U_BOUND, U_EQUILIBRIUM

# |discriminant| below this is treated as the degenerate double eigenvalue.
INFLECTED_BAND = 1e-12

BASIN_RESIDUAL_TOL = 1e-10

SETTLED_TOL = 1e-4
MONOTONE_TOL = 1e-9
EXACT_EQUILIBRIUM_TOL = 1e-12


class PointKind(Enum):
    STABLE_NODE = "stable-node"
    STABLE_SPIRAL = "stable-spiral"
    STABLE_INFLECTED_NODE = "stable-inflected-node"


class ApproachKind(Enum):
    MONOTONE = "monotone"
    OSCILLATORY = "oscillatory"
    AT_EQUILIBRIUM = "at-equilibrium"


@dataclass(frozen=True)
class StabilityReport:
    """Eigenvalues and classification of the linearized equilibrium."""

    lambda1: complex
    lambda2: complex
    kind: PointKind
    omega_star: float
    discriminant: float


def linearize(omega: float, beta: float) -> StabilityReport:
    """Eigenvalues and type of the equilibrium for given (omega, beta).

    Raises DomainError naming beta when 4 omega / beta^2 is not a finite
    float (beta^2 underflows to 0, or the quotient overflows)."""
    params_module.check_positive("omega", omega)
    params_module.check_positive("beta", beta)
    rate = beta / (2.0 * math.sqrt(omega))
    beta_sq = beta * beta
    ratio = 4.0 * omega / beta_sq if beta_sq > 0.0 else math.inf
    if not ratio < math.inf:  # NaN too, from inf / inf
        raise DomainError("beta", f"4 omega / beta^2 is not a finite float at omega = "
                                  f"{omega!r}, beta = {beta!r}")
    disc = 1.0 - ratio
    if abs(disc) <= INFLECTED_BAND:
        kind = PointKind.STABLE_INFLECTED_NODE
        lam1 = lam2 = complex(-rate, 0.0)
    elif disc > 0.0:
        kind = PointKind.STABLE_NODE
        root = math.sqrt(disc)
        lam1 = complex(-rate * (1.0 + root), 0.0)
        lam2 = complex(-rate * (1.0 - root), 0.0)
    else:
        kind = PointKind.STABLE_SPIRAL
        root = math.sqrt(-disc)
        lam1 = complex(-rate, -rate * root)
        lam2 = complex(-rate, rate * root)
    return StabilityReport(lambda1=lam1, lambda2=lam2, kind=kind,
                           omega_star=params_module.critical_omega(beta),
                           discriminant=disc)


def lyapunov(u: float, v: float) -> tuple[float, float]:
    """Energy E and Lyapunov value V = E + 1/6 at a phase point.

    V is computed from its factored square form near u = 1/2, where the
    direct expression loses every significant digit; V(1/2, 0) == 0.0.
    """
    if u < 0.0:
        raise DomainError("u", f"must be >= 0, got {u!r}")
    E = energy(u, v)
    return E, _lyapunov_float(u, v, E)


@dataclass(frozen=True)
class BasinSpec:
    """Level constant C and the v = 0 extent [u_min, u_max] of {V <= C}."""

    C: float
    u_min: float
    u_max: float

    def __post_init__(self):
        if not 0.0 <= self.u_min <= self.u_max <= U_BOUND + 1e-12:
            raise ConsistencyError(
                f"basin bounds out of order: ({self.u_min!r}, {self.u_max!r})"
            )
        for u in (self.u_min, self.u_max):
            if abs(energy(u, 0.0) + 1.0 / 6.0 - self.C) >= BASIN_RESIDUAL_TOL:
                raise ConsistencyError(
                    f"basin bound {u!r} misses the level equation for C = {self.C!r}"
                )


def basin(alpha: float) -> BasinSpec:
    """Basin of attraction for a start at rest with height ratio alpha.

    C equals the Lyapunov value of the initial state; the two v = 0
    boundary points are alpha^2/2 itself and the closed-form second root
    of the level equation.
    """
    params_module.check_alpha(alpha)
    u_init = params_module.u_from_H(alpha)
    _, C = lyapunov(u_init, 0.0)
    other = (9.0 / 8.0) * (0.5 - alpha / 3.0
                           + math.sqrt(9.0 + 12.0 * alpha - 12.0 * alpha * alpha) / 6.0) ** 2
    return BasinSpec(C=C, u_min=min(u_init, other), u_max=max(u_init, other))


@dataclass(frozen=True)
class ApproachReport:
    """Classification of how a trajectory settles, with its evidence."""

    kind: ApproachKind
    crossings: tuple
    final_distance: float


def classify_approach(run) -> ApproachReport:
    """Monotone / oscillatory / at-equilibrium settling of a run.

    Reads the run alone, no samples: its start state, its crossings, v at
    its step ends and its final state, the dense output at the horizon.
    Requires the run to have settled (|u(S) - 1/2| < 1e-4). Like the
    crossings, monotonicity is read at the step ends: v keeps one sign, to
    MONOTONE_TOL, at every step end past the start. A single crossing, or a
    non-monotone crossing-free run, is deliberately inconclusive: near the
    critical omega the dichotomy is ill-posed.
    """
    u_end = run.final_state().u
    final_distance = run.final_distance_to_equilibrium()
    if abs(u_end - U_EQUILIBRIUM) >= SETTLED_TOL:
        raise InconclusiveError(
            f"trajectory has not settled: |u(S) - 1/2| = {abs(u_end - 0.5):.3e}; "
            "extend the horizon"
        )
    u0, v0 = run.initial_state()
    if abs(u0 - U_EQUILIBRIUM) <= EXACT_EQUILIBRIUM_TOL and abs(v0) <= EXACT_EQUILIBRIUM_TOL:
        return ApproachReport(ApproachKind.AT_EQUILIBRIUM, run.crossings, final_distance)
    if len(run.crossings) >= 2:
        return ApproachReport(ApproachKind.OSCILLATORY, run.crossings, final_distance)
    if len(run.crossings) == 1:
        raise InconclusiveError(
            "exactly one equilibrium crossing: horizon too short or omega "
            "too close to the critical value"
        )
    velocities = [v for _, v in run.dense.ends(1)][1:]
    if (all(v >= -MONOTONE_TOL for v in velocities)
            or all(v <= MONOTONE_TOL for v in velocities)):
        return ApproachReport(ApproachKind.MONOTONE, run.crossings, final_distance)
    raise InconclusiveError(
        "no crossings but the approach is not monotone: horizon too short "
        "or omega too close to the critical value"
    )


@dataclass(frozen=True)
class BasinAudit:
    """Forward-invariance evidence for a trajectory against a basin."""

    max_level_excess: float
    max_lyapunov_rise: float
    final_distance: float


def audit_trajectory(traj, spec: BasinSpec) -> BasinAudit:
    """Check that a trajectory never leaves {V <= C} and that V never rises.

    Findings are reported, not raised; only a start outside the basin is
    rejected. V is read at the samples: the columns are arrays or
    sequences of floats, with the same findings. The final distance is the
    run's, at the horizon.
    """
    V = traj.V
    if V[0] > spec.C + 1e-12:
        raise DomainError(
            "traj", f"initial state has V = {float(V[0])!r} > C = {spec.C!r}"
        )
    if dynamics._numpy_if_array(V):
        excess = float((V - spec.C).max())
        rises = V[1:] - V[:-1]
        max_rise = float(max(0.0, rises.max())) if rises.size else 0.0
    else:
        excess = max([x - spec.C for x in V])
        max_rise = max([0.0] + [b - a for a, b in zip(V, V[1:])])
    return BasinAudit(max_level_excess=excess, max_lyapunov_rise=max_rise,
                      final_distance=traj.final_distance_to_equilibrium())
