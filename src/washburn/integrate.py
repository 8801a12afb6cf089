"""Adaptive trajectory integration with dense sampling and bookkeeping.

The u-form model (the acceleration `dynamics.u_form_field`) and each
reduced regime are integrated from rest at s = 0 by one `_rk.solve` call,
Dormand and Prince's embedded Runge-Kutta 5(4) pair with quartic dense
output, at the run's (abs, rel) tolerances. `solve` returns the unsampled
`Run`: its inputs and dense output. The rest is computed from the dense
output on first read and kept: the final state, the dense output at the
horizon, and the equilibrium crossings, bracketed at the step ends with a
hysteresis band and refined by safeguarded Newton on the quartic for u
(`DenseSolution.refine`, with the bits of calling the dense output).

A `Trajectory` is a run plus its samples and their derived height/energy
columns. `integrate` samples and derives them as read-only numpy arrays;
`integrate_floats`, the path of `simulate`, computes the same columns,
bit for bit, in Python floats through `DenseSolution.sample`, and keeps
them as read-only memoryviews of doubles. A `RegimeTrajectory` is a
reduced regime sampled the same two ways: `integrate_regime` through the
arrays, `integrate_regime_floats`, the path of `regime`, through the same
float sampler. This module imports no numpy itself: each array path
imports it when it runs, so `solve`, `integrate_floats` and
`integrate_regime_floats` load none, and neither do the oracle residuals
of a float run.
"""
from __future__ import annotations

import math
from array import array
from functools import cached_property
from typing import TYPE_CHECKING, NamedTuple, Union

from . import _rk, dynamics
from .dynamics import RegimeSpec, State
from .errors import DomainError, HorizonError, NumericError
from .params import (DEFAULT_INTERVALS, DEFAULT_TOLERANCES, HORIZON_EFOLDS, MAX_INTERVALS,
                     MAX_TOLERANCE, MIN_REL_TOL, REGIME_DEFAULT_HORIZON, REGIME_HORIZON_CAP,
                     U_EQUILIBRIUM, H_from_u, ModelParams, check_alpha, check_nonnegative,
                     check_positive, u_from_H)

if TYPE_CHECKING:
    import numpy as np

Column = Union["np.ndarray", memoryview]

HORIZON_CAP = 1e6

CROSSING_BAND = 1e-9
CROSSING_REFINE_TOL = 1e-10  # refinement stops at this bracket width or Newton correction

CSV_HEADER = "s,u,v,H,T,E,V"


class Crossing(NamedTuple):
    """Time at which u passes the equilibrium level, with the sign of v."""

    s: float
    direction: int


class Run:
    """An unsampled u-form solve: its inputs and dense output over [0, horizon].
    The initial state is rest at the starting height. The final state (the
    dense output at the horizon, with the bits of a sample there) and the
    equilibrium crossings are computed on first read and kept. A run is
    read-only: assigning or deleting an attribute raises AttributeError."""

    def __init__(self, params: ModelParams, epsilon: float, tolerances: tuple[float, float],
                 horizon: float, dense: _rk.DenseSolution):
        vars(self).update(params=params, epsilon=epsilon, tolerances=tolerances,
                          horizon=horizon, dense=dense)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def initial_state(self) -> State:
        return _initial_state(self.params)

    @cached_property
    def crossings(self) -> tuple[Crossing, ...]:
        return _detect_crossings(self.dense, U_EQUILIBRIUM)

    @cached_property
    def _final(self) -> State:
        (u,), (v,) = self.dense.sample((self.horizon,))
        return State(u, v)

    def final_state(self) -> State:
        return self._final

    def final_distance_to_equilibrium(self) -> float:
        u, v = self._final
        return math.hypot(u - U_EQUILIBRIUM, v)


class Trajectory(Run):
    """A run sampled every sample_step, with derived columns.

    E and V are recomputed from (u, v) at each sample, never integrated;
    H = sqrt(2u) and T = s sqrt(omega) are pure coordinate changes. Every
    sample of (u, v) is `dense` at its time, dry start or wet. The columns
    are read-only numpy arrays from `integrate` and read-only memoryviews
    of doubles, with the same bits, from `integrate_floats`.
    """

    def __init__(self, params: ModelParams, epsilon: float, tolerances: tuple[float, float],
                 horizon: float, dense: _rk.DenseSolution, s: Column, u: Column, v: Column,
                 H: Column, T: Column, E: Column, V: Column, sample_step: float):
        super().__init__(params, epsilon, tolerances, horizon, dense)
        vars(self).update(s=s, u=u, v=v, H=H, T=T, E=E, V=V, sample_step=sample_step)


def _initial_state(params: ModelParams) -> State:
    return State(u_from_H(params.alpha), 0.0)


def default_horizon(params: ModelParams) -> float:
    """About 30 damping e-folds, capped at the hard horizon limit (the cap
    itself when the damping underflows to 0)."""
    damping = params.damping
    return min(HORIZON_EFOLDS / damping, HORIZON_CAP) if damping > 0.0 else HORIZON_CAP


def _check_run(horizon: float, cap: float, tolerances: tuple[float, float]):
    """Validate a run's horizon (positive, at most cap) and tolerances, which
    `_rk.solve` then applies as given; returns (horizon, tolerances) as floats."""
    check_positive("horizon", horizon)
    if horizon > cap:
        raise HorizonError(f"{horizon!r} exceeds the cap {cap:g}")
    abs_tol, rel_tol = tolerances
    if not 0.0 < abs_tol <= MAX_TOLERANCE:
        raise DomainError("abs_tol", f"must lie in (0, {MAX_TOLERANCE:g}], got {abs_tol!r}")
    if not MIN_REL_TOL <= rel_tol <= MAX_TOLERANCE:
        raise DomainError("rel_tol", f"must lie in [{MIN_REL_TOL:g}, {MAX_TOLERANCE:g}], "
                                     f"got {rel_tol!r}")
    return float(horizon), (float(abs_tol), float(rel_tol))


def _check_samples(horizon: float, sample_step: float | None) -> float:
    """Validate the sample step of a checked horizon, defaulting to
    horizon/DEFAULT_INTERVALS (a horizon too small for that to be positive
    is refused), with the sample count capped at MAX_INTERVALS; returns it
    as a float."""
    if sample_step is None:
        sample_step = horizon / DEFAULT_INTERVALS
        if sample_step == 0.0:
            raise DomainError("horizon", f"{horizon!r} is too small to sample: "
                                         f"horizon/{DEFAULT_INTERVALS} underflows to 0")
    check_positive("sample_step", sample_step)
    if horizon / sample_step > MAX_INTERVALS:
        raise DomainError("sample_step", f"{sample_step!r} asks for more than "
                                         f"{MAX_INTERVALS} samples over the horizon {horizon!r}")
    return float(sample_step)


def _sample_grid(horizon: float, step: float) -> tuple[int, list[float]]:
    """The sample times as n and a tail: the multiples step * i for i < n,
    then the tail, which ends on the horizon itself: the nth multiple and
    the horizon, or the horizon alone where the nth multiple rounds to
    within 1e-12 of it (0.3 * 9 is 2.6999999999999997). So the last sample
    is the run's final state, bit for bit."""
    n = int(math.floor(horizon / step + 1e-9))
    last = step * n
    if horizon - last > 1e-12 * max(1.0, horizon):
        return n, [last, horizon]
    return n, [horizon]


def _readonly(column) -> memoryview:
    return memoryview(column).toreadonly()


def _sampled(dense: _rk.DenseSolution, horizon: float, sample_step: float):
    """Sample times, state rows and height sqrt(2u) from the dense output,
    all read-only numpy arrays; the first sample, the dense output at s = 0,
    is the start state. A run that overflows leaves non-finite samples, as
    `_float_sampled` does, without a numpy warning."""
    import numpy as np

    n, tail = _sample_grid(horizon, sample_step)
    s = sample_step * np.arange(n + len(tail), dtype=float)
    s[n:] = tail
    with np.errstate(over="ignore", invalid="ignore"):
        y = dense(s)
        h = np.sqrt(2.0 * np.maximum(y[0], 0.0))
    for arr in (s, y, h):
        arr.setflags(write=False)
    return s, y, h


def _float_sampled(dense: _rk.DenseSolution, horizon: float, sample_step: float):
    """`_sampled` as read-only memoryviews of doubles, one a component, with
    the same bits: every sample, the start state at s = 0 too, is
    `dense.sample` at its time, and the height clamps u in Python floats as
    numpy's maximum(u, 0.0) does (NaN kept, -0.0 taken to 0.0). Doubles take
    8 B a value where a tuple of floats takes 32 B, so even at 2^20 samples a
    run peaks below the array path's memory."""
    n, tail = _sample_grid(horizon, sample_step)
    s = array("d", [sample_step * i for i in range(n)] + tail)
    y = dense.sample(s)
    sqrt = math.sqrt
    h = array("d", [sqrt(2.0 * (0.0 if x <= 0.0 else x)) for x in y[0]])
    return _readonly(s), [_readonly(component) for component in y], _readonly(h)


def _array_columns(dense, horizon, sample_step, omega):
    """The columns s, u, v, H, T, E, V of a u-form run as read-only arrays."""
    s, (u, v), H = _sampled(dense, horizon, sample_step)
    T = s * math.sqrt(omega)
    E, V = dynamics.lyapunov_columns(u, v)
    for arr in (T, E, V):
        arr.setflags(write=False)
    return s, u, v, H, T, E, V


def _float_columns(dense, horizon, sample_step, omega):
    """`_array_columns` on `_float_sampled`: read-only memoryviews of doubles
    with the same bits."""
    s, (u, v), H = _float_sampled(dense, horizon, sample_step)
    root = math.sqrt(omega)
    T = array("d", [t * root for t in s])
    E, V = dynamics.lyapunov_columns(u, v)
    return (s, u, v, H, *(_readonly(column) for column in (T, E, V)))


def _brackets(points, level: float) -> list[tuple[float, float, int]]:
    """(lo, hi, direction) of each sign change of x - level between
    consecutive (t, x) points outside the band: points within CROSSING_BAND
    of the level belong to neither side, and NaN counts as below."""
    brackets, lo, side = [], None, None  # the last point outside the band
    for t, x in points:
        d = x - level
        if abs(d) <= CROSSING_BAND:
            continue
        above = d > 0.0
        if above is not side:
            if side is not None:
                brackets.append((lo, t, 1 if above else -1))
            side = above
        lo = t
    return brackets


def _detect_crossings(dense: _rk.DenseSolution, level: float) -> tuple[Crossing, ...]:
    # Each step-end bracket is refined to CROSSING_REFINE_TOL by safeguarded
    # Newton on u's quartic, its direction telling the side of its start.
    return tuple(Crossing(dense.refine(level, lo, hi, direction, CROSSING_REFINE_TOL),
                          direction)
                 for lo, hi, direction in _brackets(dense.ends(0), level))


def _check_solve(params, epsilon, horizon, tolerances):
    """(epsilon, horizon, tolerances) of a u-form run, checked, with the
    default horizon for None."""
    check_nonnegative("epsilon", epsilon)
    if epsilon > 1.0:
        raise DomainError("epsilon", f"must lie in [0, 1], got {epsilon!r}")
    if horizon is None:
        horizon = default_horizon(params)
    return (float(epsilon), *_check_run(horizon, HORIZON_CAP, tolerances))


def _solve_dense(params, epsilon, horizon, tolerances) -> _rk.DenseSolution:
    return _rk.solve(dynamics.u_form_field(params.damping, epsilon), _initial_state(params),
                     horizon, tolerances)


def solve(params: ModelParams, epsilon: float = 0.0, horizon: float | None = None,
          tolerances: tuple[float, float] = DEFAULT_TOLERANCES) -> Run:
    """Solve the u-form model over [0, horizon] and sample nothing.

    Every run, the dry start alpha = 0 included (u = H^2/2 leaves the field
    regular there, u'' = 1), is stepped from rest at s = 0. Default
    tolerances are (abs, rel) = (1e-10, 1e-8). The regularization epsilon
    lies in [0, 1]: above 1 the regularized equilibrium (1 - epsilon)/2 is
    negative. Loads no numpy, and refines nothing until `.crossings` is read.
    """
    epsilon, horizon, tolerances = _check_solve(params, epsilon, horizon, tolerances)
    return Run(params, epsilon, tolerances, horizon,
               _solve_dense(params, epsilon, horizon, tolerances))


def _integrate(params, epsilon, horizon, tolerances, sample_step, columns) -> Trajectory:
    """Check and solve as `solve` does, then sample: `columns` samples the run
    and derives the columns, as numpy arrays or as read-only memoryviews of
    doubles. The sample step is checked first, so a refused one costs no steps."""
    epsilon, horizon, tolerances = _check_solve(params, epsilon, horizon, tolerances)
    sample_step = _check_samples(horizon, sample_step)
    dense = _solve_dense(params, epsilon, horizon, tolerances)
    return Trajectory(params, epsilon, tolerances, horizon, dense,
                      *columns(dense, horizon, sample_step, params.omega), sample_step)


def integrate(params: ModelParams, epsilon: float = 0.0,
              horizon: float | None = None,
              tolerances: tuple[float, float] = DEFAULT_TOLERANCES,
              sample_step: float | None = None) -> Trajectory:
    """`solve`, then sample the run on multiples of sample_step, ending on
    the horizon itself, through the integrator's quartic dense output: the
    first sample is the dense output at s = 0, which is the start state, and
    the last is the run's final state. The columns are read-only numpy arrays.
    """
    return _integrate(params, epsilon, horizon, tolerances, sample_step, _array_columns)


def integrate_floats(params: ModelParams, epsilon: float = 0.0,
                     horizon: float | None = None,
                     tolerances: tuple[float, float] = DEFAULT_TOLERANCES,
                     sample_step: float | None = None) -> Trajectory:
    """`integrate` without numpy: the same run, checks and crossings, its
    columns read-only memoryviews of doubles with the bits of `integrate`'s
    arrays.

    The samples come from `DenseSolution.sample` and E and V from the float
    branch of `dynamics.lyapunov_columns`. A run costs about 0.9 us a
    sample more than `integrate` (2^20 samples at (1, 1, 0.5): 1.05 s
    against 0.09 s, best of 4, on a 2-vCPU Xeon VM). That pays only where
    importing numpy, about 0.16 s, is the larger cost: one run of up to
    about 10^5 samples in a fresh process, as `simulate` makes. A verdict
    needs no samples: `solve`.
    """
    return _integrate(params, epsilon, horizon, tolerances, sample_step, _float_columns)


def detect_crossings(run: Run, level: float = U_EQUILIBRIUM) -> tuple[Crossing, ...]:
    """Level crossings of a run's u, hysteresis-filtered and refined by
    safeguarded Newton. Raises DomainError for a level that is not finite."""
    if not math.isfinite(level):
        raise DomainError("level", f"must be finite, got {level!r}")
    return _detect_crossings(run.dense, level)


class RegimeTrajectory(NamedTuple):
    """Sampled reduced-regime run in u* coordinates, with h* = sqrt(2 u*).

    The columns t, u, v (None in the first-order cases 2 and 3) and h are
    read-only numpy arrays from `integrate_regime` and read-only memoryviews
    of doubles, with the same bits, from `integrate_regime_floats`.
    """

    spec: RegimeSpec
    beta: float
    h0: float
    t: Column
    u: Column
    v: Column | None
    h: Column
    tolerances: tuple[float, float]


REGIME_TOLERANCES = (1e-12, 1e-11)


def _integrate_regime(spec, beta, alpha, horizon, tolerances, sample_step,
                      sampled) -> RegimeTrajectory:
    """Check, solve and sample a reduced regime: `sampled` is `_sampled` or
    `_float_sampled`. The run is checked first, so a refused one costs no
    steps and loads no numpy."""
    check_positive("beta", beta)
    check_alpha(alpha)
    horizon, tolerances = _check_run(horizon, REGIME_HORIZON_CAP, tolerances)
    sample_step = _check_samples(horizon, sample_step)
    u0 = u_from_H(alpha)
    y0 = (u0,) if spec.first_order else (u0, 0.0)
    dense = _rk.solve(dynamics.regime_field(spec, beta), y0, horizon, tolerances)
    t, y, h = sampled(dense, horizon, sample_step)
    return RegimeTrajectory(spec=spec, beta=beta, h0=H_from_u(u0), t=t, u=y[0],
                            v=None if spec.first_order else y[1], h=h, tolerances=tolerances)


def integrate_regime(spec: RegimeSpec, beta: float, alpha: float = 0.0,
                     horizon: float = REGIME_DEFAULT_HORIZON,
                     tolerances: tuple[float, float] = REGIME_TOLERANCES,
                     sample_step: float | None = None) -> RegimeTrajectory:
    """Integrate a reduced regime from u*(0) = alpha^2/2 at rest, sampled as
    `integrate` samples, into read-only numpy arrays.

    The horizon is capped at REGIME_HORIZON_CAP: the undamped case 4 takes
    a number of steps proportional to it.
    """
    return _integrate_regime(spec, beta, alpha, horizon, tolerances, sample_step, _sampled)


def integrate_regime_floats(spec: RegimeSpec, beta: float, alpha: float = 0.0,
                            horizon: float = REGIME_DEFAULT_HORIZON,
                            tolerances: tuple[float, float] = REGIME_TOLERANCES,
                            sample_step: float | None = None) -> RegimeTrajectory:
    """`integrate_regime` without numpy, as `integrate_floats` is `integrate`
    without it: the same run and checks, its columns read-only memoryviews of
    doubles with the bits of the arrays. The path of the `regime` command;
    many runs in one process, as verify's criterion 10 makes, sample faster
    through the arrays."""
    return _integrate_regime(spec, beta, alpha, horizon, tolerances, sample_step,
                             _float_sampled)


def regime_oracle_residuals(traj: RegimeTrajectory) -> tuple[str, Column]:
    """Residual of the regime's closed-form / implicit / conservation oracle,
    a read-only numpy array for array columns and a read-only memoryview of
    doubles for float columns. On floats the oracle runs on `math`: its
    case-1 `exp` and case-2 `log1p` are libm's, which can differ from
    numpy's in the last bit, and a row where it raises ArithmeticError or
    ValueError, where numpy gives inf or NaN, is not finite.

    Raises NumericError where the oracle is not finite: the case-2
    relation holds only for h* < 1.
    """
    np = dynamics._numpy_if_array(traj.t)
    if np is None:
        name, columns, error = _regime_error(traj, math)
        resid = array("d")
        for row in zip(*columns):
            try:
                resid.append(abs(error(*row)))
            except (ArithmeticError, ValueError):  # where numpy gives inf or NaN
                resid.append(math.nan)
        resid = _readonly(resid)
        bad = [i for i, x in enumerate(resid) if not math.isfinite(x)]
    else:
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            name, columns, error = _regime_error(traj, np)
            resid = np.abs(error(*columns))
        bad = np.flatnonzero(~np.isfinite(resid))
    if len(bad):
        i = bad[0]
        raise NumericError(f"{name} oracle is not finite from t* = {float(traj.t[i])!r} "
                           f"(h* = {float(traj.h[i])!r})")
    return name, resid


def _regime_error(traj: RegimeTrajectory, xp):
    """(oracle name, the columns it reads, error at one row of them) for the
    regime of traj, on floats (xp = `math`) or on arrays (xp = numpy); the
    oracle's per-run constants are computed once here. On floats a case-2
    start at or above the asymptote h* = 1 makes every row's error NaN, as
    numpy's start term makes it inf or NaN."""
    case, beta, h0 = traj.spec.case, traj.beta, traj.h0
    if case is dynamics.RegimeCase.NEGLIGIBLE_GRAVITY:
        exact_u = dynamics._case1_solution(beta, u_from_H(h0), xp)

        def error(t, u):
            return u - exact_u(t)
        return "closed_form_u", (traj.t, traj.u), error
    if case is dynamics.RegimeCase.NEGLIGIBLE_INERTIA:
        try:
            time_at = dynamics._case2_time(beta, h0, xp)
        except ValueError:  # math.log1p of -h0 <= -1
            def time_at(h):
                return math.nan

        def error(t, h):
            return time_at(h) - t
        return "implicit_time", (traj.t, traj.h), error
    if case is dynamics.RegimeCase.NEGLIGIBLE_GRAVITY_INERTIA:
        exact_h = dynamics._case3_height(beta, h0, xp)

        def error(t, h):
            return h - exact_h(t)
        return "closed_form_h", (traj.t, traj.h), error
    energy = dynamics._energy if xp is math else dynamics.energy
    e0 = energy(u_from_H(h0), 0.0)

    def error(u, v):
        return energy(u, v) - e0
    return "energy_drift", (traj.u, traj.v), error
