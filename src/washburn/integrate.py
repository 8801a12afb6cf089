"""Adaptive trajectory integration with dense sampling and bookkeeping.

The u-form model, with the vector field `dynamics.u_form_field`, is
integrated with the explicit embedded Runge-Kutta 5(4) pair of
Dormand and Prince with quartic dense output (`_rk`). Trajectories
carry derived height/energy columns, equilibrium-crossing events detected
with a hysteresis band and refined by bisection on the dense output's
scalar interpolant of u (`DenseSolution.component(0)`), and the
evaluation handle needed to re-detect crossings at other levels.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, NamedTuple, Sequence

import numpy as np

from . import _rk, dynamics, stability
from .dynamics import RegimeSpec, State
from .errors import DomainError, HorizonError, NumericError
from .params import (DEFAULT_INTERVALS, DEFAULT_TOLERANCES, MAX_INTERVALS,
                     REGIME_DEFAULT_HORIZON, REGIME_HORIZON_CAP, U_EQUILIBRIUM, ModelParams,
                     check_alpha, check_nonnegative, check_positive)

HORIZON_CAP = 1e6
HORIZON_EFOLDS = 30.0

CROSSING_BAND = 1e-9
CROSSING_REFINE_TOL = 1e-10

CSV_HEADER = "s,u,v,H,T,E,V"


class Crossing(NamedTuple):
    """Time at which u passes the equilibrium level, with the sign of v."""

    s: float
    direction: int


@dataclass(frozen=True)
class Trajectory:
    """Sampled solution with derived columns and integration metadata.

    E and V are recomputed from (u, v) at each sample, never integrated;
    H = sqrt(2u) and T = s sqrt(omega) are pure coordinate changes.
    """

    s: np.ndarray
    u: np.ndarray
    v: np.ndarray
    H: np.ndarray
    T: np.ndarray
    E: np.ndarray
    V: np.ndarray
    params: ModelParams
    epsilon: float
    tolerances: tuple[float, float]
    sample_step: float
    crossings: tuple[Crossing, ...]
    dense: _rk.DenseSolution = field(repr=False, compare=False)

    def final_state(self) -> State:
        return State(float(self.u[-1]), float(self.v[-1]))

    def final_distance_to_equilibrium(self) -> float:
        return math.hypot(self.u[-1] - U_EQUILIBRIUM, self.v[-1])


class DependenceRecord(NamedTuple):
    alpha: float
    delta_alpha: float
    distance: float


def default_horizon(params: ModelParams) -> float:
    """About 30 damping e-folds, capped at the hard horizon limit (the cap
    itself when the damping underflows to 0)."""
    damping = params.damping
    return min(HORIZON_EFOLDS / damping, HORIZON_CAP) if damping > 0.0 else HORIZON_CAP


def _check_run(horizon: float, cap: float, tolerances: tuple[float, float],
               sample_step: float | None):
    """Validate a run's horizon, tolerances and sample step, with the sample
    step defaulting to horizon/DEFAULT_INTERVALS and the sample count capped at
    MAX_INTERVALS; returns (horizon, tolerances, sample_step) as floats."""
    check_positive("horizon", horizon)
    if horizon > cap:
        raise HorizonError(f"{horizon!r} exceeds the cap {cap:g}")
    abs_tol, rel_tol = tolerances
    check_positive("abs_tol", abs_tol)
    check_positive("rel_tol", rel_tol)
    if sample_step is None:
        sample_step = horizon / DEFAULT_INTERVALS
    check_positive("sample_step", sample_step)
    if horizon / sample_step > MAX_INTERVALS:
        raise DomainError("sample_step", f"{sample_step!r} asks for more than "
                                         f"{MAX_INTERVALS} samples over the horizon {horizon!r}")
    return float(horizon), (float(abs_tol), float(rel_tol)), float(sample_step)


def _sample_grid(horizon: float, step: float) -> np.ndarray:
    n = int(math.floor(horizon / step + 1e-9))
    s = step * np.arange(n + 1, dtype=float)
    if s[-1] > horizon:
        s[-1] = horizon
    if horizon - s[-1] > 1e-12 * max(1.0, horizon):
        s = np.append(s, horizon)
    return s


def _sampled(dense: _rk.DenseSolution, horizon: float, sample_step: float, y0):
    """Sample times, state rows and height sqrt(2u) from the dense output,
    with the first sample pinned to the initial state y0; all read-only."""
    s = _sample_grid(horizon, sample_step)
    y = dense(s)
    y[:, 0] = y0
    h = np.sqrt(2.0 * np.maximum(y[0], 0.0))
    for arr in (s, y, h):
        arr.setflags(write=False)
    return s, y, h


def _series_seed(gamma: float):
    """Local expansion u = s^2/2 - (1+gamma) s^3/6 + ... used to step off
    the square-root corner at u = 0 with zero initial data."""
    c3 = -(1.0 + gamma) / 6.0
    c4 = (1.0 + gamma) * (3.0 * gamma + 1.0) / 72.0

    def eval_series(s):
        """(u, v) at a float or an array of times."""
        u = s * s * (0.5 + s * (c3 + s * c4))
        v = s * (1.0 + s * (3.0 * c3 + s * 4.0 * c4))
        return u, v

    return eval_series


def _solve(params: ModelParams, epsilon: float, horizon: float,
           tolerances: tuple[float, float]):
    """Run the RK5(4) solve; returns (dense solution, start state)."""
    gamma = params.damping
    u0 = 0.5 * params.alpha * params.alpha
    t_start = 0.0
    y_start = (u0, 0.0)
    series = None
    if epsilon == 0.0 and u0 == 0.0:
        # Hoelder corner at u = 0: seed the first step analytically.
        series = _series_seed(gamma)
        t_start = min(1e-6, 0.01 / (1.0 + gamma), horizon / 2.0)
        y_start = series(t_start)

    abs_tol, rel_tol = tolerances
    dense = _rk.solve(dynamics.u_form_field(gamma, epsilon), t_start, y_start, horizon,
                      rel_tol, abs_tol, head=series)
    return dense, u0


def _bisect_level(u_at: Callable[[float], float], level: float,
                  lo: float, hi: float, tol: float) -> float:
    f_lo = u_at(lo) - level
    for _ in range(128):
        if hi - lo <= tol:
            break
        mid = 0.5 * (lo + hi)
        f_mid = u_at(mid) - level
        if f_mid == 0.0:
            return mid
        if (f_mid > 0.0) == (f_lo > 0.0):
            lo, f_lo = mid, f_mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def _detect_crossings(s: np.ndarray, u: np.ndarray, u_at: Callable[[float], float],
                      level: float) -> tuple[Crossing, ...]:
    # Samples within CROSSING_BAND of the level belong to neither side (NaN
    # counts as below); a crossing lies between consecutive kept samples on
    # opposite sides, and is refined by bisection on u_at, the dense output's
    # u as a function of one float time.
    d = u - level
    kept = np.flatnonzero(~(np.abs(d) <= CROSSING_BAND))
    above = d[kept] > 0.0
    return tuple(Crossing(_bisect_level(u_at, level, float(s[kept[i]]),
                                        float(s[kept[i + 1]]), CROSSING_REFINE_TOL),
                          1 if above[i + 1] else -1)
                 for i in np.flatnonzero(above[1:] != above[:-1]).tolist())


def integrate(params: ModelParams, epsilon: float = 0.0,
              horizon: float | None = None,
              tolerances: tuple[float, float] = DEFAULT_TOLERANCES,
              sample_step: float | None = None) -> Trajectory:
    """Integrate the u-form model over [0, horizon].

    Samples land on multiples of sample_step (plus the final time) through
    the integrator's quartic dense output; the first sample matches the
    initial data exactly. Default tolerances are (abs, rel) = (1e-10, 1e-8).
    Equilibrium crossings are bracketed by the samples and refined to
    CROSSING_REFINE_TOL by bisection on `dense.component(0)`, the dense
    output's u as a function of one float time. The regularization epsilon
    lies in [0, 1]: above 1 the regularized equilibrium (1 - epsilon)/2 is
    negative.
    """
    check_nonnegative("epsilon", epsilon)
    if epsilon > 1.0:
        raise DomainError("epsilon", f"must lie in [0, 1], got {epsilon!r}")
    epsilon = float(epsilon)
    if horizon is None:
        horizon = default_horizon(params)
    horizon, tolerances, sample_step = _check_run(horizon, HORIZON_CAP, tolerances,
                                                  sample_step)
    dense, u0 = _solve(params, epsilon, horizon, tolerances)

    s, (u, v), H = _sampled(dense, horizon, sample_step, (u0, 0.0))
    T = s * math.sqrt(params.omega)
    E, V = stability.lyapunov_columns(u, v)
    for arr in (T, E, V):
        arr.setflags(write=False)
    return Trajectory(s=s, u=u, v=v, H=H, T=T, E=E, V=V, params=params,
                      epsilon=epsilon, tolerances=tolerances, sample_step=sample_step,
                      crossings=_detect_crossings(s, u, dense.component(0),
                                                  U_EQUILIBRIUM),
                      dense=dense)


def detect_crossings(traj: Trajectory, level: float = U_EQUILIBRIUM) -> tuple[Crossing, ...]:
    """Level crossings of u, hysteresis-filtered and bisection-refined.
    Raises DomainError for a level that is not finite."""
    if not math.isfinite(level):
        raise DomainError("level", f"must be finite, got {level!r}")
    return _detect_crossings(traj.s, traj.u, traj.dense.component(0), level)


def continuous_dependence(params: ModelParams, alpha0: float,
                          alphas: Sequence[float], horizon: float | None = None,
                          tolerances: tuple[float, float] = DEFAULT_TOLERANCES,
                          sample_step: float | None = None) -> list[DependenceRecord]:
    """Sup-norm distance of each alpha-run from the alpha0 reference run."""
    if horizon is None:
        horizon = default_horizon(params)
    reference = integrate(params.replace_alpha(alpha0), horizon=horizon,
                          tolerances=tolerances, sample_step=sample_step)
    records = []
    for alpha in alphas:
        run = integrate(params.replace_alpha(alpha), horizon=horizon,
                        tolerances=tolerances, sample_step=sample_step)
        distance = float(np.max(np.abs(run.u - reference.u)))
        records.append(DependenceRecord(float(alpha), abs(float(alpha) - float(alpha0)),
                                        distance))
    return records


@dataclass(frozen=True)
class RegimeTrajectory:
    """Sampled reduced-regime run in u* coordinates, with h* = sqrt(2 u*)."""

    spec: RegimeSpec
    beta: float
    h0: float
    t: np.ndarray
    u: np.ndarray
    v: np.ndarray | None
    h: np.ndarray
    tolerances: tuple[float, float]


REGIME_TOLERANCES = (1e-12, 1e-11)


def integrate_regime(spec: RegimeSpec, beta: float, alpha: float = 0.0,
                     horizon: float = REGIME_DEFAULT_HORIZON,
                     tolerances: tuple[float, float] = REGIME_TOLERANCES,
                     sample_step: float | None = None) -> RegimeTrajectory:
    """Integrate a reduced regime from u*(0) = alpha^2/2 at rest.

    The horizon is capped at REGIME_HORIZON_CAP: the undamped case 4 takes
    a number of steps proportional to it.
    """
    check_positive("beta", beta)
    check_alpha(alpha)
    horizon, tolerances, sample_step = _check_run(horizon, REGIME_HORIZON_CAP, tolerances,
                                                  sample_step)
    u0 = 0.5 * alpha * alpha
    y0 = (u0,) if spec.first_order else (u0, 0.0)
    abs_tol, rel_tol = tolerances
    # A run that overflows leaves non-finite samples, which
    # regime_oracle_residuals rejects; numpy need not warn about them first.
    with np.errstate(over="ignore", invalid="ignore"):
        dense = _rk.solve(dynamics.regime_field(spec, beta), 0.0, y0, horizon, rel_tol,
                          abs_tol)
        t, y, h = _sampled(dense, horizon, sample_step, y0)
    return RegimeTrajectory(spec=spec, beta=beta, h0=math.sqrt(2.0 * u0), t=t, u=y[0],
                            v=None if spec.first_order else y[1], h=h, tolerances=tolerances)


def regime_oracle_residuals(traj: RegimeTrajectory) -> tuple[str, np.ndarray]:
    """Residual of the regime's closed-form / implicit / conservation oracle.

    Raises NumericError where the oracle is not finite: the case-2
    relation holds only for h* < 1.
    """
    case = traj.spec.case
    beta = traj.beta
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        if case is dynamics.RegimeCase.NEGLIGIBLE_GRAVITY:
            exact = dynamics.case1_closed_form_u(traj.t, beta, u0=0.5 * traj.h0**2)
            name, resid = "closed_form_u", np.abs(traj.u - exact)
        elif case is dynamics.RegimeCase.NEGLIGIBLE_INERTIA:
            times = dynamics.case2_implicit_time(traj.h, beta, traj.h0)
            name, resid = "implicit_time", np.abs(times - traj.t)
        elif case is dynamics.RegimeCase.NEGLIGIBLE_GRAVITY_INERTIA:
            exact = dynamics.case3_closed_form_h(traj.t, beta, traj.h0)
            name, resid = "closed_form_h", np.abs(traj.h - exact)
        else:
            drift = dynamics.energy(traj.u, traj.v) - dynamics.energy(0.5 * traj.h0**2, 0.0)
            name, resid = "energy_drift", np.abs(drift)
    bad = np.flatnonzero(~np.isfinite(resid))
    if bad.size:
        i = bad[0]
        raise NumericError(f"{name} oracle is not finite from t* = {float(traj.t[i])!r} "
                           f"(h* = {float(traj.h[i])!r})")
    return name, resid
