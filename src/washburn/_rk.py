"""Embedded Dormand-Prince 5(4) pair with quartic dense output.

`solve` steps a vector field f(t, y) -> tuple of floats on states held as
tuples of Python floats (any length; the package steps lengths 1 and 2),
with the step-size controller of scipy's RK45: the Hairer-Norsett-Wanner
initial-step rule, safety factor 0.9, step factors bounded to [0.2, 10],
the RMS norm of the error over atol + rtol max(|y_old|, |y_new|), the
first-same-as-last stage, and the last step clipped to the bound. Given
the same field and tolerances it takes the same steps as
`scipy.integrate.solve_ivp(method="RK45")` (tests/test_rk.py holds it to
that) without importing scipy or building arrays on every stage.

References: Dormand & Prince, J. Comput. Appl. Math. 6 (1980) 19-26;
Shampine, Math. Comp. 46 (1986) 135-150 (the dense output); Hairer,
Norsett & Wanner, Solving Ordinary Differential Equations I, II.4-6.
"""
from __future__ import annotations

import math
from bisect import bisect_left
from functools import cached_property
from itertools import chain

import numpy as np

from .errors import NumericError, StepSizeUnderflowError

SAFETY = 0.9
MIN_FACTOR = 0.2
MAX_FACTOR = 10.0
ERROR_EXPONENT = -1 / 5  # -1 / (order of the error estimator + 1)
MIN_RTOL = 100 * 2.220446049250313e-16  # as scipy, 100 machine epsilons
# Accepted plus rejected steps one solve may take. Every step's stages are
# kept for the dense output, so this bounds time and memory alike.
MAX_STEPS = 2**17

C2, C3, C4, C5 = 1 / 5, 3 / 10, 4 / 5, 8 / 9
A21 = 1 / 5
A31, A32 = 3 / 40, 9 / 40
A41, A42, A43 = 44 / 45, -56 / 15, 32 / 9
A51, A52, A53, A54 = 19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729
A61, A62, A63, A64, A65 = 9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656
B1, B3, B4, B5, B6 = 35 / 384, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84
E1, E3, E4, E5, E6, E7 = (-71 / 57600, 71 / 16695, -71 / 1920, 17253 / 339200,
                          -22 / 525, 1 / 40)

# Quartic dense output (Shampine's choice of c6): the rows for stages 1 and
# 3-7 (stage 2's row is zero). Within a step of length h from (t0, y0),
# y(t0 + x h) = y0 + h sum_j Q_j x^(j+1) with Q = K^T P over the stages K.
P = np.array([
    [1, -8048581381 / 2820520608, 8663915743 / 2820520608,
     -12715105075 / 11282082432],
    [0, 131558114200 / 32700410799, -68118460800 / 10900136933,
     87487479700 / 32700410799],
    [0, -1754552775 / 470086768, 14199869525 / 1410260304,
     -10690763975 / 1880347072],
    [0, 127303824393 / 49829197408, -318862633887 / 49829197408,
     701980252875 / 199316789632],
    [0, -282668133 / 205662961, 2019193451 / 616988883, -1453857185 / 822651844],
    [0, 40617522 / 29380423, -110615467 / 29380423, 69997945 / 29380423]])


def _rms(xs) -> float:
    return math.sqrt(sum([x * x for x in xs])) / len(xs) ** 0.5


def _initial_step(fun, t0, y0, f0, t_bound, rtol, atol) -> float:
    """Hairer-Norsett-Wanner starting step for an error estimator of order 4;
    makes one evaluation of fun. Raises StepSizeUnderflowError when the
    field is so large against the tolerances that the first guess is 0."""
    interval = t_bound - t0
    scale = [atol + abs(y) * rtol for y in y0]
    d0 = _rms([y / sc for y, sc in zip(y0, scale)])
    d1 = _rms([f / sc for f, sc in zip(f0, scale)])
    h0 = 1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1
    h0 = min(h0, interval)
    if h0 == 0.0:
        raise StepSizeUnderflowError(
            f"initial step size is zero at t = {t0!r}: the scaled field norm overflows")
    f1 = fun(t0 + h0, [y + h0 * f for y, f in zip(y0, f0)])
    d2 = _rms([(a - b) / sc for a, b, sc in zip(f1, f0, scale)]) / h0
    if d1 <= 1e-15 and d2 <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** (1 / 5)
    return min(100 * h0, h1, interval)


def solve(fun, t0: float, y0, t_bound: float, rtol: float, atol: float,
          head=None) -> "DenseSolution":
    """Integrate y' = fun(t, y) from (t0, y0) to t_bound > t0.

    rtol below 100 machine epsilons is raised to that floor, as scipy does.
    `head`, if given, is the state for t < t0 (for example a series seed):
    head(t) returns a tuple of floats for a float and of arrays for an
    array. Raises StepSizeUnderflowError when the step falls below ten
    units in the last place of t, or the starting step to 0, and
    NumericError when MAX_STEPS steps, accepted or rejected, do not
    reach t_bound.
    """
    if not t_bound > t0:
        raise ValueError(f"t_bound {t_bound!r} must exceed t0 {t0!r}")
    rtol = max(rtol, MIN_RTOL)
    max_steps = MAX_STEPS
    t = t0
    y = tuple([float(c) for c in y0])
    f = fun(t, y)
    h_abs = _initial_step(fun, t, y, f, t_bound, rtol, atol)
    nfev = 2
    rejected = 0
    ts, y_olds, stages = [t], [], []
    while t < t_bound:
        min_step = 10.0 * math.ulp(t)
        if h_abs < min_step:
            h_abs = min_step
        step_rejected = False
        while True:
            if len(stages) + rejected >= max_steps:
                raise NumericError(f"step budget of {max_steps} steps (accepted plus "
                                   f"rejected) spent at t = {t!r} of {t_bound!r}")
            if h_abs < min_step:
                raise StepSizeUnderflowError(
                    f"required step size is less than spacing between numbers at t = {t!r}")
            t_new = t + h_abs
            if t_new > t_bound:
                t_new = t_bound
            h = t_new - t
            h_abs = h
            k2 = fun(t + C2 * h, [y_ + (A21 * k1) * h for y_, k1 in zip(y, f)])
            k3 = fun(t + C3 * h, [y_ + (A31 * k1 + A32 * k2_) * h
                                  for y_, k1, k2_ in zip(y, f, k2)])
            k4 = fun(t + C4 * h, [y_ + (A41 * k1 + A42 * k2_ + A43 * k3_) * h
                                  for y_, k1, k2_, k3_ in zip(y, f, k2, k3)])
            k5 = fun(t + C5 * h, [y_ + (A51 * k1 + A52 * k2_ + A53 * k3_ + A54 * k4_) * h
                                  for y_, k1, k2_, k3_, k4_ in zip(y, f, k2, k3, k4)])
            k6 = fun(t + h, [y_ + (A61 * k1 + A62 * k2_ + A63 * k3_ + A64 * k4_
                                   + A65 * k5_) * h
                             for y_, k1, k2_, k3_, k4_, k5_ in zip(y, f, k2, k3, k4, k5)])
            y_new = tuple([y_ + h * (B1 * k1 + B3 * k3_ + B4 * k4_ + B5 * k5_ + B6 * k6_)
                           for y_, k1, k3_, k4_, k5_, k6_ in zip(y, f, k3, k4, k5, k6)])
            f_new = fun(t + h, y_new)
            nfev += 6
            error_norm = _rms([
                (E1 * k1 + E3 * k3_ + E4 * k4_ + E5 * k5_ + E6 * k6_ + E7 * k7) * h
                / (atol + max(abs(a), abs(b)) * rtol)
                for k1, k3_, k4_, k5_, k6_, k7, a, b in zip(f, k3, k4, k5, k6, f_new,
                                                            y, y_new)])
            if error_norm < 1.0:
                if error_norm == 0.0:
                    factor = MAX_FACTOR
                else:
                    factor = min(MAX_FACTOR, SAFETY * error_norm ** ERROR_EXPONENT)
                if step_rejected:
                    factor = min(1.0, factor)
                h_abs *= factor
                break
            h_abs *= max(MIN_FACTOR, SAFETY * error_norm ** ERROR_EXPONENT)
            step_rejected = True
            rejected += 1
        ts.append(t_new)
        y_olds.append(y)
        stages.append((f, k3, k4, k5, k6, f_new))
        t, y, f = t_new, y_new, f_new
    return DenseSolution(ts, y_olds, stages, y, nfev, rejected, head)


class DenseSolution:
    """The accepted steps of one solve and their quartic interpolants.

    Calling it evaluates the interpolants on a float or an array of times
    (shape (n,) or (n, len(t))); `at` evaluates one component at one float
    time in plain Python, with the same arithmetic, so both give the same
    bits. A time on a step boundary takes the earlier step, and times past
    either end extrapolate the end steps, as scipy's OdeSolution does;
    times before the start use `head` when there is one.

    `nfev` counts evaluations of the field, `accepted` and `rejected` the
    steps; `y` is the final state.
    """

    def __init__(self, ts, y_olds, stages, y, nfev, rejected, head=None):
        self.y = y
        self.nfev = nfev
        self.accepted = m = len(stages)
        self.rejected = rejected
        self._head = head
        self._ts = ts
        self._y0s = y_olds
        self.t = np.array(ts)
        self._h = np.diff(self.t)
        n = len(y)
        k = np.fromiter(chain.from_iterable(chain.from_iterable(stages)), float,
                        m * 6 * n).reshape(m, 6, n)
        self._q = np.ascontiguousarray((k.transpose(0, 2, 1) @ P).transpose(2, 1, 0))
        self._y0 = np.fromiter(chain.from_iterable(y_olds), float, m * n).reshape(m, n).T

    @cached_property
    def _hs(self):
        return self._h.tolist()

    @cached_property
    def _qs(self):
        return self._q.transpose(2, 1, 0).tolist()  # [step][component][j]

    def __call__(self, t) -> np.ndarray:
        t = np.asarray(t, dtype=float)
        if t.ndim == 0:
            t = float(t)
            return np.array([self.at(t, i) for i in range(len(self.y))])
        k = np.searchsorted(self.t, t, side="left") - 1
        np.clip(k, 0, self.accepted - 1, out=k)
        h = self._h[k]
        x = (t - self.t[k]) / h
        q0, q1, q2, q3 = self._q[:, :, k]  # (4, n) + t.shape
        y = self._y0[:, k] + h * (x * (q0 + x * (q1 + x * (q2 + x * q3))))
        if self._head is not None:
            early = t < self._ts[0]
            if early.any():
                y[:, early] = self._head(t[early])
        return y

    def at(self, t: float, i: int = 0) -> float:
        """Component i of the solution at the float time t."""
        ts = self._ts
        if t < ts[0] and self._head is not None:
            return self._head(t)[i]
        k = min(max(bisect_left(ts, t) - 1, 0), self.accepted - 1)
        h = self._hs[k]
        x = (t - ts[k]) / h
        q0, q1, q2, q3 = self._qs[k][i]
        return self._y0s[k][i] + h * (x * (q0 + x * (q1 + x * (q2 + x * q3))))
