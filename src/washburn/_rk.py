"""Embedded Dormand-Prince 5(4) pair with quartic dense output.

`solve` steps u'' = accel(u, u') from s = 0 as the system u' = v,
v' = accel(u, v) on a state (u, v) of two Python floats. The stage
derivative of u is the stage's v, which the stage sum already gives, so
each stage makes one call that returns one float. A
one-component state (w,) is stepped as the velocity equation
w' = accel(W, w) of W = the integral of w: W rides in the first slot from
0.0, is left out of the error norm and the starting step, and is dropped
from the solution. The loop is written out as scalar locals, with no
per-stage lists or tuples, and with Dormand and Prince's tableau written
into the stage sums: each weight is the fraction that defines it
(`44 / 45 * fb`), which the compiler folds into the double a named
constant would hold, so the loop looks up no global name but its two
errors. It uses the step-size controller of scipy's RK45: the
Hairer-Norsett-Wanner initial-step rule, safety factor 0.9, step factors
bounded to [0.2, 10], the RMS norm of the error over
atol + rtol max(|y_old|, |y_new|) (taken with conditional expressions,
not builtin calls, and with max's choice on NaN), the first-same-as-last
stage, and the last step clipped to the bound. Given the same field and
tolerances it takes the same steps as
`scipy.integrate.solve_ivp(method="RK45")` on the system (tests/test_rk.py
holds it to that) without importing scipy or building arrays on every
stage.

Each accepted step packs its record, 12 doubles, with one `STEP_RECORD`
and appends the bytes to one `bytearray`: the step's start time, the
start state and the stages K1 and K3-K6 that Shampine's quartic
interpolant needs. Its seventh stage K7 is the first-same-as-last pair,
which is the next record's K1. After the last step one closing record
holds the end time, the end state and its derivative, so that its K1 is
the last step's K7 (its K3-K6 are zeros, never read): the store lists
every step end, and every step reads its K7 from the record after it.
The `DenseSolution` it returns keeps that store and reads it two ways,
with the same bits (tests/test_rk.py and tests/test_float_path.py hold
them to that):

- in plain Python floats, one step at a time: `refine`, the crossing
  refinement of `integrate`, and `sample`, the list sampler of the command
  line. Each runs its own loop and Horner sum, and calls the one step
  reader `_step`, which finds a time's step and builds its quartic
  coefficients as the stage sum, only when a time leaves the step it
  holds;
- as numpy arrays, built on the first array call: calling the solution
  evaluates the interpolants on an array of times from contiguous
  coefficient blocks (sorted times, every sample grid, fill them by run
  lengths of times per step), running the Horner sum in place on one
  accumulator.

Both build each coefficient as the same explicit sum over the six stages,
added left to right (no BLAS call, so the bits do not depend on the CPU's
BLAS kernel), and find a time's step by the same rule. The solution knows
only its steps: a time before the first step extrapolates that step's
quartic, as a time past the last extrapolates the last one. `ends` reads
the step ends in place, to bracket events (Hairer, Norsett & Wanner, II.6).
This module imports no numpy; the array evaluator imports it on first use.

References: Dormand & Prince, J. Comput. Appl. Math. 6 (1980) 19-26;
Shampine, Math. Comp. 46 (1986) 135-150 (the dense output); Hairer,
Norsett & Wanner, Solving Ordinary Differential Equations I, II.4-6.
"""
from __future__ import annotations

import math
import struct
from array import array
from bisect import bisect_left
from functools import cached_property

from .errors import NumericError, StepSizeUnderflowError
from .params import MAX_STEPS  # `solve` reads the step budget from this module

# Quartic dense output (Shampine's choice of c6): the rows for stages 1 and
# 3-7 (stage 2's row is zero). Within a step of length h from (t_k, y_k),
# y(t_k + x h) = y_k + h sum_j Q_j x^(j+1), where each coefficient is the sum
# Q_j = K1 P1j + K3 P3j + K4 P4j + K5 P5j + K6 P6j + K7 P7j over the stages
# K, every term included (zeros too) and added left to right: the order
# plain Python floats give, and no BLAS kernel chooses another.
P = (
    (1.0, -8048581381 / 2820520608, 8663915743 / 2820520608,
     -12715105075 / 11282082432),
    (0.0, 131558114200 / 32700410799, -68118460800 / 10900136933,
     87487479700 / 32700410799),
    (0.0, -1754552775 / 470086768, 14199869525 / 1410260304,
     -10690763975 / 1880347072),
    (0.0, 127303824393 / 49829197408, -318862633887 / 49829197408,
     701980252875 / 199316789632),
    (0.0, -282668133 / 205662961, 2019193451 / 616988883, -1453857185 / 822651844),
    (0.0, 40617522 / 29380423, -110615467 / 29380423, 69997945 / 29380423))
P_COLUMNS = tuple(zip(*P))  # Q_j's six stage weights, for j = 0-3

# One accepted step in the store: its start time and u, then (v, v') of K1, K3-K6;
# the closing record: the end time and state, (v, v') there, then zeros.
STEP_RECORD = struct.Struct("12d")
RECORD_FLOATS = 12
# A record and the next one's t, u and K1, which is the record's step's K7.
RECORD_AND_NEXT = struct.Struct("16d")


def _rms(a: float, b: float, one: bool) -> float:
    """RMS norm of the pair (a, b), or of b alone when the state has one
    component: the W slot a of such a state is not error-controlled."""
    return math.sqrt(b * b) if one else math.sqrt(a * a + b * b) / 2 ** 0.5


def _initial_step(accel, ya, yb, fb, one, t_bound, rtol, atol) -> float:
    """Hairer-Norsett-Wanner starting step at s = 0 for an error estimator of
    order 4 on the state (ya, yb) with derivative (yb, fb); makes one
    evaluation of accel. Raises StepSizeUnderflowError when the field is so
    large against the tolerances that the first guess is 0."""
    sa = atol + abs(ya) * rtol
    sb = atol + abs(yb) * rtol
    d0 = _rms(ya / sa, yb / sb, one)
    d1 = _rms(yb / sa, fb / sb, one)
    h0 = 1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1
    h0 = min(h0, t_bound)
    if h0 == 0.0:
        raise StepSizeUnderflowError(
            "initial step size is zero at t = 0.0: the scaled field norm overflows")
    vb = yb + h0 * fb
    gb = accel(ya + h0 * yb, vb)
    d2 = _rms((vb - yb) / sa, (gb - fb) / sb, one) / h0
    if d1 <= 1e-15 and d2 <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** (1 / 5)
    return min(100 * h0, h1, t_bound)


def solve(accel, y0, t_bound: float, tolerances) -> "DenseSolution":
    """Integrate u'' = accel(u, u') from y0 at s = 0 to t_bound > 0.

    y0 is (u, v), stepped as u' = v, v' = accel(u, v), or (w,), stepped as
    w' = accel(W, w) with W = 0.0 at s = 0 carried in the first slot but kept
    out of the error norm and the starting step (an overflowing W cannot
    then reject or shrink a step). accel is called once per stage with two
    floats and returns one float. The tableau and the controller's
    constants are written into the stage sums as literals, which the
    compiler folds. tolerances is an (abs, rel) pair that
    `integrate._check_run` accepts, applied as given. Each accepted step's
    12 floats, its start time first, are packed into one bytes store, closed
    by one record of the end time and state, from which the returned
    DenseSolution reads its steps. Raises StepSizeUnderflowError when the
    step falls below ten units in the last place of t, or the starting step
    to 0, and NumericError when MAX_STEPS steps, accepted or rejected, do
    not reach t_bound.
    """
    if not t_bound > 0.0:
        raise ValueError(f"t_bound {t_bound!r} must be positive")
    n = len(y0)
    if n == 1:
        ya, yb = 0.0, float(y0[0])
    elif n == 2:
        ya, yb = float(y0[0]), float(y0[1])
    else:
        raise ValueError(f"the state has {n} components; solve steps 1 or 2")
    one = n == 1
    atol, rtol = tolerances
    max_steps = budget = MAX_STEPS
    ulp, sqrt = math.ulp, math.sqrt
    t = 0.0
    # The state is (ya, yb) and its derivative (yb, fb): slot a's stage
    # derivatives are slot b's stage values, yb, v2-v6 and nb.
    fb = accel(ya, yb)
    h_abs = _initial_step(accel, ya, yb, fb, one, t_bound, rtol, atol)
    rejected = 0
    steps = bytearray()  # per accepted step: t, ya, then the stage pairs K1, K3-K6
    store, pack = steps.extend, STEP_RECORD.pack
    scale_a = -ya if ya < 0.0 else ya  # |y| of the step's start, for the error scale
    scale_b = -yb if yb < 0.0 else yb
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
            # The stages, each weight of the tableau the fraction that defines it.
            v2 = yb + (1 / 5 * fb) * h
            k2 = accel(ya + (1 / 5 * yb) * h, v2)
            v3 = yb + (3 / 40 * fb + 9 / 40 * k2) * h
            k3 = accel(ya + (3 / 40 * yb + 9 / 40 * v2) * h, v3)
            v4 = yb + (44 / 45 * fb + -56 / 15 * k2 + 32 / 9 * k3) * h
            k4 = accel(ya + (44 / 45 * yb + -56 / 15 * v2 + 32 / 9 * v3) * h, v4)
            v5 = yb + (19372 / 6561 * fb + -25360 / 2187 * k2 + 64448 / 6561 * k3
                       + -212 / 729 * k4) * h
            k5 = accel(ya + (19372 / 6561 * yb + -25360 / 2187 * v2 + 64448 / 6561 * v3
                             + -212 / 729 * v4) * h, v5)
            v6 = yb + (9017 / 3168 * fb + -355 / 33 * k2 + 46732 / 5247 * k3
                       + 49 / 176 * k4 + -5103 / 18656 * k5) * h
            k6 = accel(ya + (9017 / 3168 * yb + -355 / 33 * v2 + 46732 / 5247 * v3
                             + 49 / 176 * v4 + -5103 / 18656 * v5) * h, v6)
            na = ya + h * (35 / 384 * yb + 500 / 1113 * v3 + 125 / 192 * v4
                           + -2187 / 6784 * v5 + 11 / 84 * v6)
            nb = yb + h * (35 / 384 * fb + 500 / 1113 * k3 + 125 / 192 * k4
                           + -2187 / 6784 * k5 + 11 / 84 * k6)
            gb = accel(na, nb)
            # The scale max(|y_old|, |y_new|) without builtin calls: `b if b > a
            # else a` keeps max's choice, a when either is NaN. A zero's sign
            # cannot reach the quotient, since atol > 0 absorbs it.
            new_a = -na if na < 0.0 else na
            new_b = -nb if nb < 0.0 else nb
            # The error weights are B - B*, B* the embedded fourth-order row.
            eb = ((-71 / 57600 * fb + 71 / 16695 * k3 + -71 / 1920 * k4
                   + 17253 / 339200 * k5 + -22 / 525 * k6 + 1 / 40 * gb) * h
                  / (atol + (new_b if new_b > scale_b else scale_b) * rtol))
            if one:
                error_norm = sqrt(eb * eb)
            else:
                ea = ((-71 / 57600 * yb + 71 / 16695 * v3 + -71 / 1920 * v4
                       + 17253 / 339200 * v5 + -22 / 525 * v6 + 1 / 40 * nb) * h
                      / (atol + (new_a if new_a > scale_a else scale_a) * rtol))
                error_norm = sqrt(ea * ea + eb * eb) / 2 ** 0.5
            # The controller: safety factor 0.9, error exponent -1 / 5 (that is,
            # -1 / (the estimator's order 4 + 1)), step factors within [0.2, 10].
            if error_norm < 1.0:
                # error_norm lies in [0, 1) here, so no NaN meets the clamps.
                if error_norm == 0.0:
                    factor = 10.0
                else:
                    factor = 0.9 * error_norm ** (-1 / 5)
                    if factor > 10.0:
                        factor = 10.0
                if step_rejected and factor > 1.0:
                    factor = 1.0
                h_abs *= factor
                break
            factor = 0.9 * error_norm ** (-1 / 5)
            h_abs *= factor if factor > 0.2 else 0.2  # max's rule: NaN gives 0.2
            step_rejected = True
            rejected += 1
        store(pack(t, ya, yb, fb, v3, k3, v4, k4, v5, k5, v6, k6))
        t = t_new
        ya = na
        yb = nb
        fb = gb
        scale_a = new_a
        scale_b = new_b
    store(pack(t, ya, yb, fb, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0))
    return DenseSolution(steps, n, rejected)


class DenseSolution:
    """The accepted steps of one solve and their quartic interpolants.

    Calling it evaluates the interpolants on a float or an array of times
    (shape (n,) or (n,) + t.shape), the Horner sum running in place on one
    accumulator; a float is evaluated as an array of one time. Nondecreasing
    1-D times, every sample grid, take their steps by run lengths: one
    `searchsorted` of the step times into them and one `repeat` a
    coefficient block; other times take a binary search and a `take` each.
    `sample` evaluates the interpolants on a sequence of float times in
    plain Python, and `refine`, which finds where component 0 crosses a
    level, evaluates them one float time at a time; both give the bits of
    calling the solution. All of them take a time to step k by the rule of
    a left `searchsorted` over the interior step times t[1:-1]: a time on a
    step boundary takes the earlier step, and times before the first step
    or past the last extrapolate that end step, as scipy's OdeSolution does.

    `t` holds the step times, the store's first column: each step's start,
    then the last step's end. `n` counts the state's components, without W.
    `accepted` and `rejected` count the steps and `nfev` the calls of the
    acceleration they took, 2 + 6 (accepted + rejected);
    `crossing_evaluations` counts the quartic evaluations that `refine`
    has made on this solution. The end state is
    the closing record's alone. `t` and the coefficient arrays are built
    from the store on first use, so a solution that is only sampled in plain
    Python imports no numpy.
    """

    def __init__(self, steps, n, rejected):
        """`steps` is the packed bytes store `solve` fills, read as native
        doubles: one `STEP_RECORD` per accepted step, then the closing one
        of the end time, state and derivative (the last step's K7), kept as
        bytes without a growing bytearray's slack. A state of n = 1 keeps
        its W in u's slot and in the first slot of each pair; W is dropped
        when a step's coefficients are built."""
        self.n, self.rejected = n, rejected
        self._steps = bytes(steps)
        self.accepted = len(self._steps) // STEP_RECORD.size - 1
        self.nfev = 2 + 6 * (self.accepted + rejected)
        self.crossing_evaluations = 0

    @cached_property
    def _times(self):
        """The step times, each step's start then the last step's end, read
        in place from the store."""
        return memoryview(self._steps).cast("d")[::RECORD_FLOATS]

    def ends(self, c: int):
        """(t, y[c]) as floats at each step's start, then at the last step's end."""
        values = memoryview(self._steps).cast("d")[3 - self.n + c::RECORD_FLOATS]
        return zip(self._times, values)

    def _step(self, t: float, slots):
        """The step a float time falls in, by the rule of calling the solution:
        (t_k, t_next, h, rows), a row (y_k, q0, q1, q2, q3) for each slot in
        slots, each Q_j the sum K1 P1j + K3 P3j + ... + K7 P7j added left to
        right as the array build adds it."""
        k = bisect_left(self._times, t, 1, self.accepted) - 1
        record = RECORD_AND_NEXT.unpack_from(self._steps, k * STEP_RECORD.size)
        t_next = record[RECORD_FLOATS]
        rows = []
        for c in slots:
            k1, k3, k4, k5, k6 = record[2 + c:RECORD_FLOATS:2]
            k7 = record[RECORD_FLOATS + 2 + c]
            row = [record[1 + c]]
            for p1, p3, p4, p5, p6, p7 in P_COLUMNS:
                row.append(k1 * p1 + k3 * p3 + k4 * p4 + k5 * p5 + k6 * p6 + k7 * p7)
            rows.append(row)
        return record[0], t_next, t_next - record[0], rows

    def sample(self, times) -> list[array]:
        """The interpolants at each float time, one `array("d")` per
        component (8 B a value), with the bits of calling the solution. A
        step's coefficients are built when a time first falls in it and kept
        while the times stay there, so sorted times build each step they
        visit once."""
        columns = [array("d") for _ in range(self.n)]
        slots = range(2 - self.n, 2)
        t_k = t_next = math.nan  # bounds of the step held in h and rows: none yet
        for t in times:
            if not t_k < t <= t_next:
                t_k, t_next, h, rows = self._step(t, slots)
                rows = [(column.append, *row) for column, row in zip(columns, rows)]
            x = (t - t_k) / h
            for append, y_k, q0, q1, q2, q3 in rows:
                append(y_k + h * (x * (q0 + x * (q1 + x * (q2 + x * q3)))))
        return columns

    def refine(self, level: float, lo: float, hi: float, direction: int, tol: float) -> float:
        """A time in [lo, hi] at which component 0 crosses level, by Newton's
        method safeguarded by halving (rtsafe: Press et al., Numerical
        Recipes, 9.4).

        direction is the bracket's, +1 where component 0 rises through level
        and -1 where it falls, so lo's side is known and never evaluated. From
        the bracket's mid, each iterate is evaluated on the quartic of the
        step that holds it, with the bits of calling the solution, and
        becomes the bracket end on its side (NaN counts as below level). The
        next iterate is the Newton point t - f / f', with the slope
        f' = q0 + x (2 q1 + x (3 q2 + 4 x q3)) from the same coefficients,
        or the bracket's mid where that point leaves the open bracket or its
        correction is more than half the one before. The iteration returns
        the iterate where component 0 equals level, the Newton point once
        its correction is below tol, or the bracket's mid once the bracket
        is no wider than tol or after 128 evaluations. A step's coefficients
        are built when an iterate first falls in it. Each evaluation adds one
        to `crossing_evaluations`.
        """
        slot = 2 - self.n  # component 0's slot in the record's pairs
        rising = direction > 0
        t_k = t_next = math.nan  # bounds of the step held in h and q0-q3: none yet
        t = 0.5 * (lo + hi)
        correction = hi - lo  # the last move, Newton's or a halving's
        for evaluations in range(1, 129):
            if not t_k < t <= t_next:
                t_k, t_next, h, ((y_k, q0, q1, q2, q3),) = self._step(t, (slot,))
            x = (t - t_k) / h
            f = y_k + h * (x * (q0 + x * (q1 + x * (q2 + x * q3)))) - level
            if f == 0.0:
                break
            if (f > 0.0) == rising:
                hi = t
            else:
                lo = t
            if hi - lo <= tol:
                t = 0.5 * (lo + hi)
                break
            slope = q0 + x * (2.0 * q1 + x * (3.0 * q2 + x * (4.0 * q3)))
            newton = f / slope if slope else math.inf
            if lo < t - newton < hi and abs(newton) <= 0.5 * correction:
                t -= newton
                correction = abs(newton)
                if correction < tol:
                    break
            else:
                correction = 0.5 * (hi - lo)
                t = 0.5 * (lo + hi)
        else:
            t = 0.5 * (lo + hi)
        self.crossing_evaluations += evaluations
        return t

    @cached_property
    def _records(self):
        """The store as an (accepted + 1, 12) numpy view."""
        import numpy as np

        return np.frombuffer(self._steps, float).reshape(-1, RECORD_FLOATS)

    @cached_property
    def t(self):
        """The step times: each step's start, then the last step's end."""
        return self._records[:, 0].copy()

    @cached_property
    def _y0(self):
        """(n, m): the start state of each step."""
        return self._records[:-1, 3 - self.n:3].T.copy()

    @cached_property
    def _q(self):
        """(4, n, m): the quartic coefficients of each step."""
        import numpy as np

        n, m = self.n, self.accepted
        records = self._records
        # The stages as contiguous (n, m) blocks: K1, K3-K6 from each step's
        # record, then K7, the next record's K1. Contiguous blocks make each
        # product 3-4 times faster than one of a strided view on a
        # two-component solve.
        stages = np.empty((6, n, m))
        stages[:5] = records[:-1, 2:].reshape(m, 5, 2)[:, :, 2 - n:].transpose(1, 2, 0)
        stages[5] = records[1:, 4 - n:4].T
        # Q_j = K1 P1j + K3 P3j + ... + K7 P7j, summed left to right over the
        # stages, each stage's (n, m) block times its row of P as (4, 1, 1):
        # one elementwise product and one sum per stage, Q in its final
        # (4, n, m) layout.
        p_blocks = np.array(P)[:, :, None, None]
        q = np.multiply(stages[0], p_blocks[0])
        term = np.empty_like(q)
        for k_i, p_i in zip(stages[1:], p_blocks[1:]):
            np.multiply(k_i, p_i, out=term)
            q += term
        return q

    def __call__(self, t):
        import numpy as np

        t = np.asarray(t, dtype=float)
        if t.ndim == 0:
            return self(t.reshape(1))[:, 0]
        # Each time's step start x, step end h, coefficients and start state,
        # copied into contiguous blocks: the fancy index self._q[:, :, k]
        # leaves strided views that slow every Horner ufunc about twofold.
        if t.ndim == 1 and (t[1:] >= t[:-1]).all():
            # Sorted times come in one run a step: a step takes the times
            # above its start up to its end (the left rule), so the run ends
            # where the step's end time would go on the right of equal times.
            # The run lengths are the differences of the runs' ends, 0 first
            # and t.size last, taken by one subtraction.
            ends = np.empty(self.accepted + 1, dtype=np.intp)
            ends[0] = 0
            ends[1:-1] = t.searchsorted(self.t[1:-1], side="right")
            ends[-1] = t.size
            runs = ends[1:] - ends[:-1]
            x = self.t[:-1].repeat(runs)
            h = self.t[1:].repeat(runs)
            q0, q1, q2, q3 = self._q.repeat(runs, axis=2)  # (4, n) + t.shape
            y = self._y0.repeat(runs, axis=1)
        else:
            k = self.t[1:-1].searchsorted(t, side="left")
            x = self.t.take(k)
            h = self.t.take(k + 1)
            q0, q1, q2, q3 = self._q.take(k, axis=2)
            y = self._y0.take(k, axis=1)
        h -= x
        np.subtract(t, x, out=x)
        x /= h
        # The Horner sum y0 + h (x (q0 + x (q1 + x (q2 + x q3)))) runs in
        # place on one accumulator: the same IEEE operations on the same
        # operands, some of them commuted, so the same bits.
        acc = x * q3
        acc += q2
        acc *= x
        acc += q1
        acc *= x
        acc += q0
        acc *= x
        acc *= h
        y += acc
        return y
