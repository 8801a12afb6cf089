"""Embedded Dormand-Prince 5(4) pair with quartic dense output.

`solve` steps a vector field f(t, y) -> tuple of floats on a state of one
or two Python floats. Its loop is written out for two components as
scalar locals, with no per-stage lists; a one-component state is stepped
with a second component pinned at 0.0, which changes no bit of the result.
It uses the step-size controller of scipy's RK45: the Hairer-Norsett-Wanner
initial-step rule, safety factor 0.9, step factors bounded to [0.2, 10],
the RMS norm of the error over atol + rtol max(|y_old|, |y_new|), the
first-same-as-last stage, and the last step clipped to the bound. Given
the same field and tolerances it takes the same steps as
`scipy.integrate.solve_ivp(method="RK45")` (tests/test_rk.py holds it to
that) without importing scipy or building arrays on every stage.

Each accepted step appends its record to one flat `array("d")`: the start
state, then the six stages Shampine's quartic interpolant needs, 14 floats
as two-component pairs. The `DenseSolution` it returns views that store,
evaluates the interpolants on an array of times from contiguous
coefficient blocks, and `DenseSolution.component(i)` gives component i as
a plain-Python function of one float time, with the same bits, for root
finding such as the crossing bisection in `integrate`.

References: Dormand & Prince, J. Comput. Appl. Math. 6 (1980) 19-26;
Shampine, Math. Comp. 46 (1986) 135-150 (the dense output); Hairer,
Norsett & Wanner, Solving Ordinary Differential Equations I, II.4-6.
"""
from __future__ import annotations

import math
from array import array
from bisect import bisect_left
from typing import Callable

import numpy as np

from .errors import NumericError, StepSizeUnderflowError
from .params import MAX_STEPS  # `solve` reads the step budget from this module

SAFETY = 0.9
MIN_FACTOR = 0.2
MAX_FACTOR = 10.0
ERROR_EXPONENT = -1 / 5  # -1 / (order of the error estimator + 1)
MIN_RTOL = 100 * 2.220446049250313e-16  # as scipy, 100 machine epsilons

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


def _rms(a: float, b: float, root_n: float) -> float:
    """RMS norm of the pair (a, b) over a state of root_n**2 components;
    the pad of a one-component state is 0.0 and adds nothing."""
    return math.sqrt(a * a + b * b) / root_n


def _initial_step(fun, t0, ya, yb, fa, fb, root_n, t_bound, rtol, atol) -> float:
    """Hairer-Norsett-Wanner starting step for an error estimator of order 4;
    makes one evaluation of fun. Raises StepSizeUnderflowError when the
    field is so large against the tolerances that the first guess is 0."""
    interval = t_bound - t0
    sa = atol + abs(ya) * rtol
    sb = atol + abs(yb) * rtol
    d0 = _rms(ya / sa, yb / sb, root_n)
    d1 = _rms(fa / sa, fb / sb, root_n)
    h0 = 1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1
    h0 = min(h0, interval)
    if h0 == 0.0:
        raise StepSizeUnderflowError(
            f"initial step size is zero at t = {t0!r}: the scaled field norm overflows")
    ga, gb = fun(t0 + h0, (ya + h0 * fa, yb + h0 * fb))
    d2 = _rms((ga - fa) / sa, (gb - fb) / sb, root_n) / h0
    if d1 <= 1e-15 and d2 <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** (1 / 5)
    return min(100 * h0, h1, interval)


def solve(fun, t0: float, y0, t_bound: float, rtol: float, atol: float,
          head=None) -> "DenseSolution":
    """Integrate y' = fun(t, y) from (t0, y0) to t_bound > t0.

    The state has one or two components, and atol must be positive. The
    loop is written out for two components (a and b) as scalar locals; a
    one-component state (u,) is stepped as (u, 0.0), with fun called on
    (u,) and the pad's field component fixed at 0.0, so the pad stays 0.0
    and the error norm and starting step still divide by the true length.
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
    n = len(y0)
    if n == 1:
        field = fun

        def fun(t, y):
            return field(t, y[:1])[0], 0.0
        ya, yb = float(y0[0]), 0.0
    elif n == 2:
        ya, yb = float(y0[0]), float(y0[1])
    else:
        raise ValueError(f"the state has {n} components; solve steps 1 or 2")
    root_n = n ** 0.5
    rtol = max(rtol, MIN_RTOL)
    max_steps = budget = MAX_STEPS
    ulp, sqrt = math.ulp, math.sqrt
    t = t0
    fa, fb = fun(t, (ya, yb))
    h_abs = _initial_step(fun, t, ya, yb, fa, fb, root_n, t_bound, rtol, atol)
    nfev = 2
    rejected = 0
    ts = [t]
    steps = array("d")  # per accepted step: ya, yb, then the six stage pairs
    store = steps.fromlist
    while t < t_bound:
        min_step = 10.0 * ulp(t)
        if h_abs < min_step:
            h_abs = min_step
        step_rejected = False
        while True:
            if budget <= 0:
                raise NumericError(f"step budget of {max_steps} steps (accepted plus "
                                   f"rejected) spent at t = {t!r} of {t_bound!r}")
            budget -= 1
            if h_abs < min_step:
                raise StepSizeUnderflowError(
                    f"required step size is less than spacing between numbers at t = {t!r}")
            t_new = t + h_abs
            if t_new > t_bound:
                t_new = t_bound
            h = t_new - t
            h_abs = h
            k2a, k2b = fun(t + C2 * h, (ya + (A21 * fa) * h, yb + (A21 * fb) * h))
            k3a, k3b = fun(t + C3 * h, (ya + (A31 * fa + A32 * k2a) * h,
                                        yb + (A31 * fb + A32 * k2b) * h))
            k4a, k4b = fun(t + C4 * h, (ya + (A41 * fa + A42 * k2a + A43 * k3a) * h,
                                        yb + (A41 * fb + A42 * k2b + A43 * k3b) * h))
            k5a, k5b = fun(t + C5 * h,
                           (ya + (A51 * fa + A52 * k2a + A53 * k3a + A54 * k4a) * h,
                            yb + (A51 * fb + A52 * k2b + A53 * k3b + A54 * k4b) * h))
            k6a, k6b = fun(t + h, (ya + (A61 * fa + A62 * k2a + A63 * k3a + A64 * k4a
                                         + A65 * k5a) * h,
                                   yb + (A61 * fb + A62 * k2b + A63 * k3b + A64 * k4b
                                         + A65 * k5b) * h))
            na = ya + h * (B1 * fa + B3 * k3a + B4 * k4a + B5 * k5a + B6 * k6a)
            nb = yb + h * (B1 * fb + B3 * k3b + B4 * k4b + B5 * k5b + B6 * k6b)
            ga, gb = fun(t + h, (na, nb))
            nfev += 6
            ea = ((E1 * fa + E3 * k3a + E4 * k4a + E5 * k5a + E6 * k6a + E7 * ga) * h
                  / (atol + max(abs(ya), abs(na)) * rtol))
            eb = ((E1 * fb + E3 * k3b + E4 * k4b + E5 * k5b + E6 * k6b + E7 * gb) * h
                  / (atol + max(abs(yb), abs(nb)) * rtol))
            error_norm = sqrt(ea * ea + eb * eb) / root_n
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
        store([ya, yb, fa, fb, k3a, k3b, k4a, k4b, k5a, k5b, k6a, k6b, ga, gb])
        t, ya, yb, fa, fb = t_new, na, nb, ga, gb
    return DenseSolution(ts, steps, (ya, yb)[:n], nfev, rejected, head)


class DenseSolution:
    """The accepted steps of one solve and their quartic interpolants.

    Calling it evaluates the interpolants on a float or an array of times
    (shape (n,) or (n,) + t.shape); `component(i)` returns component i as
    a function of one float time in plain Python, with the same arithmetic,
    so both give the same bits. A time on a step boundary takes the earlier
    step, and times past either end extrapolate the end steps, as scipy's
    OdeSolution does; times before the start use `head` when there is one.

    `nfev` counts evaluations of the field, `accepted` and `rejected` the
    steps; `y` is the final state.
    """

    def __init__(self, ts, steps, y, nfev, rejected, head=None):
        """`steps` is the flat float store `solve` fills: 7 pairs per accepted
        step, the start state then the six stages, padded to two components
        as `solve` steps them; the pad is dropped here, before Q is built."""
        self.y = y
        self.nfev = nfev
        self.accepted = m = len(ts) - 1
        self.rejected = rejected
        self._head = head
        self._ts = ts
        self.t = np.array(ts)
        self._h = np.diff(self.t)
        rows = np.frombuffer(steps, float).reshape(m, 7, 2)[:, :, :len(y)]
        k = np.ascontiguousarray(rows[:, 1:])
        self._q = np.ascontiguousarray((k.transpose(0, 2, 1) @ P).transpose(2, 1, 0))
        self._y0 = np.ascontiguousarray(rows[:, 0].T)
        self._components = {}

    def __call__(self, t) -> np.ndarray:
        t = np.asarray(t, dtype=float)
        if t.ndim == 0:
            t = float(t)
            return np.array([self.component(i)(t) for i in range(len(self.y))])
        k = np.searchsorted(self.t, t, side="left") - 1
        np.clip(k, 0, self.accepted - 1, out=k)
        h = self._h[k]
        x = (t - self.t[k]) / h
        # `take` writes each coefficient block contiguously, where the fancy
        # index self._q[:, :, k] leaves strided views that slow every Horner
        # ufunc about twofold; the IEEE operations, and so the bits, are the same.
        q0, q1, q2, q3 = self._q.take(k, axis=2)  # (4, n) + t.shape
        y = self._y0.take(k, axis=1) + h * (x * (q0 + x * (q1 + x * (q2 + x * q3))))
        if self._head is not None:
            early = t < self._ts[0]
            if early.any():
                y[:, early] = self._head(t[early])
        return y

    def component(self, i: int = 0) -> Callable[[float], float]:
        """Component i of the solution as a function of one float time.

        The function keeps the steps as Python lists in its closure, so a
        call costs a bisection of the step times and a Horner sum; it is
        built once per component."""
        cached = self._components.get(i)
        if cached is not None:
            return cached
        ts, head, last = self._ts, self._head, self.accepted - 1
        t_first = ts[0]
        hs = self._h.tolist()
        qs = self._q[:, i, :].T.tolist()  # [step][j]
        y0s = self._y0[i].tolist()

        def u_at(t: float) -> float:
            if t < t_first and head is not None:
                return head(t)[i]
            k = bisect_left(ts, t) - 1
            if k < 0:
                k = 0
            elif k > last:
                k = last
            h = hs[k]
            x = (t - ts[k]) / h
            q0, q1, q2, q3 = qs[k]
            return y0s[k] + h * (x * (q0 + x * (q1 + x * (q2 + x * q3))))

        self._components[i] = u_at
        return u_at
