"""The in-house Dormand-Prince 5(4) stepper against scipy's RK45, the
controller it copies: same field evaluations, same accepted steps, same
final state to 1e-14, at the package's default tolerances; against
`solve_by_loop`, the per-component loop over a field f(t, y) that it
unrolls, bit for bit; its dense coefficients against `q_by_sum`, their
formula added left to right in plain Python floats, bit for bit; its
dense output against `call_by_fancy_index` and `at_by_lists`, array and
scalar evaluators of its own, bit for bit;
the case-4 regime field against `case4_field_by_copy`, the field it
replaced, bit for bit; and the memory its step store takes per accepted
step.

`_rk.solve` steps an acceleration u'' = accel(u, u'), or w' = accel(W, w)
for a one-component state; both references step a generic f(t, y).
`field_of` turns an acceleration into that f, so the references do not
share the stepper's reading of the state."""
import math
from bisect import bisect_left
from itertools import chain
from types import SimpleNamespace

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from washburn import _rk, dynamics
from washburn._rk import P
from washburn.dynamics import RegimeCase, RegimeSpec
from washburn.errors import NumericError, StepSizeUnderflowError
from washburn.integrate import (DEFAULT_TOLERANCES, REGIME_HORIZON_CAP, REGIME_TOLERANCES,
                                default_horizon, integrate)
from washburn.params import MIN_REL_TOL, ModelParams

from test_package import fresh


def field_of(accel, n=2):
    """The f(t, y) of an acceleration, for the references: (v, accel(u, v))
    for y = (u, v), and (accel(nan, w),) for y = (w,), the velocity equation
    of a first-order regime, whose acceleration does not read W."""
    if n == 1:
        return lambda t, y: (accel(math.nan, y[0]),)
    return lambda t, y: (y[1], accel(y[0], y[1]))


def u_form_at(params, epsilon=0.0, tolerances=DEFAULT_TOLERANCES):
    """The solve `integrate` makes, from rest at s = 0, dry start or wet."""
    dense = integrate(params, epsilon, tolerances=tolerances).dense
    y0 = (0.5 * params.alpha * params.alpha, 0.0)
    accel = dynamics.u_form_field(params.damping, epsilon)
    return dense, accel, y0, default_horizon(params), tolerances


def u_form(gamma, alpha):
    """`u_form_at` at damping gamma."""
    return u_form_at(ModelParams(omega=1.0 / gamma**2, beta=1.0, alpha=alpha))


def regime(case, beta, alpha, horizon):
    """The solve `integrate_regime` makes."""
    spec = RegimeSpec.standard(case)
    u0 = 0.5 * alpha * alpha
    y0 = (u0,) if spec.first_order else (u0, 0.0)
    accel = dynamics.regime_field(spec, beta)
    dense = _rk.solve(accel, y0, horizon, REGIME_TOLERANCES)
    return dense, accel, y0, horizon, REGIME_TOLERANCES


PROBLEMS = {
    "gamma=1,dry": lambda: u_form(1.0, 0.0),
    "gamma=3.16,alpha=1.5": lambda: u_form(3.16, 1.5),
    "gamma=0.5,alpha=1.4": lambda: u_form(0.5, 1.4),
    # The smallest relative tolerance a run accepts, applied as given.
    "rel_tol=floor": lambda: u_form_at(ModelParams(1.0, 1.0, 0.0),
                                       tolerances=(1e-12, MIN_REL_TOL)),
    "regime-case2": lambda: regime(RegimeCase.NEGLIGIBLE_INERTIA, 1.0, 0.1, 5.0),
    "regime-case4": lambda: regime(RegimeCase.NEGLIGIBLE_VISCOSITY, 1.0, 0.5, 20.0),
}


@pytest.mark.parametrize("name", PROBLEMS)
def test_takes_the_steps_of_scipy_rk45(name):
    dense, accel, y0, t_bound, (abs_tol, rel_tol) = PROBLEMS[name]()
    ref = solve_ivp(field_of(accel, len(y0)), (0.0, t_bound), y0, method="RK45", rtol=rel_tol,
                    atol=abs_tol, dense_output=True)
    assert ref.status == 0
    assert dense.nfev == ref.nfev
    assert dense.accepted == ref.t.size - 1
    assert dense.nfev == 2 + 6 * (dense.accepted + dense.rejected)
    assert np.max(np.abs(end_state(dense) - ref.y[:, -1])) <= 1e-14
    times = np.sort(np.random.default_rng(5).uniform(0.0, t_bound, 1000))
    assert np.max(np.abs(dense(times) - ref.sol(times))) <= 1e-14


def call_by_fancy_index(dense, t):
    """An independent reference of `DenseSolution.__call__`, on times of
    any shape and order: it gathers each time's coefficients by a fancy
    index, not by run lengths, and finds a time's step by its own rule,
    `searchsorted` over all the step times, less one, clipped to the end
    steps."""
    t = np.asarray(t, dtype=float)
    k = np.searchsorted(dense.t, t, side="left") - 1
    np.clip(k, 0, dense.accepted - 1, out=k)
    h = np.diff(dense.t)[k]
    x = (t - dense.t[k]) / h
    q0, q1, q2, q3 = dense._q[:, :, k]
    return dense._y0[:, k] + h * (x * (q0 + x * (q1 + x * (q2 + x * q3))))


def at_by_lists(dense):
    """The deleted `DenseSolution.at`, over the `_hs`/`_qs`/`_y0s` lists it
    cached: the scalar interpolant, kept as the reference of the dense
    output at one time and of the crossing refinement's bisection. It finds
    a time's step by its own rule, `bisect_left` over all the step times,
    less one, clamped to the end steps."""
    ts, hs, last = dense.t.tolist(), np.diff(dense.t).tolist(), dense.accepted - 1
    qs, y0s = dense._q.transpose(2, 1, 0).tolist(), dense._y0.T.tolist()

    def at(t, i=0):
        k = min(max(bisect_left(ts, t) - 1, 0), last)
        h = hs[k]
        x = (t - ts[k]) / h
        q0, q1, q2, q3 = qs[k][i]
        return y0s[k][i] + h * (x * (q0 + x * (q1 + x * (q2 + x * q3))))

    return at


def bits(a):
    return np.asarray(a, dtype=float).view(np.int64)


def reference_times(dense):
    """Unsorted times with every step boundary, and times past the end and
    before the start (down to 0 on a dry start, which starts after 0)."""
    t = dense.t
    start, end = float(t[0]), float(t[-1])
    early = [start - 1.0, start - 0.5 * float(t[1] - t[0]), 0.5 * start, 0.0]
    inside = np.random.default_rng(11).uniform(start, end, 500)
    times = np.concatenate([inside, t, 0.5 * (t[1:] + t[:-1]), early,
                            [end + 1e-9, end + 0.5, end + 10.0]])
    return np.random.default_rng(12).permutation(times)


@pytest.mark.parametrize("name", PROBLEMS)
def test_array_and_scalar_dense_output_agree_bit_for_bit(name):
    dense, *_ = PROBLEMS[name]()
    times = np.sort(reference_times(dense))
    at = at_by_lists(dense)
    scalar = np.array([[at(t, i) for t in times.tolist()] for i in range(dense.n)])
    assert np.array_equal(bits(dense(times)), bits(scalar))


def _rms(xs):
    return math.sqrt(sum([x * x for x in xs])) / len(xs) ** 0.5


def _initial_step_by_loop(fun, t0, y0, f0, t_bound, rtol, atol):
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


# The Dormand-Prince 5(4) tableau (Dormand & Prince, J. Comput. Appl. Math.
# 6 (1980) 19-26), copied here so that the reference shares no constant
# with the stepper: the stage times, which only this reference reads
# (`_rk.solve` steps an autonomous system), the stage weights, the
# fifth-order weights B and the error weights E = B - B*, B* the embedded
# fourth-order row (B2 and E2 are 0).
C2, C3, C4, C5 = 1 / 5, 3 / 10, 4 / 5, 8 / 9
A21 = 1 / 5
A31, A32 = 3 / 40, 9 / 40
A41, A42, A43 = 44 / 45, -56 / 15, 32 / 9
A51, A52, A53, A54 = 19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729
A61, A62, A63, A64, A65 = 9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656
B1, B3, B4, B5, B6 = 35 / 384, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84
E1, E3, E4, E5, E6, E7 = (-71 / 57600, 71 / 16695, -71 / 1920, 17253 / 339200, -22 / 525,
                          1 / 40)
# The step-size controller of scipy's RK45: its safety factor, its bounds
# on the step factor, and the exponent -1 / (error estimator order 4 + 1).
SAFETY, MIN_FACTOR, MAX_FACTOR = 0.9, 0.2, 10.0
ERROR_EXPONENT = -1 / 5


def solve_by_loop(fun, y0, t_bound, tolerances):
    """The comprehension loop over a field f(t, y) on a state of any length
    that `_rk.solve` unrolled, kept as its reference; it steps from t = 0
    with an (abs, rel) tolerance pair and returns the fields of its solution
    that `assert_same_solve` compares."""
    atol, rtol = tolerances
    max_steps = _rk.MAX_STEPS
    t = 0.0
    y = tuple([float(c) for c in y0])
    f = fun(t, y)
    h_abs = _initial_step_by_loop(fun, t, y, f, t_bound, rtol, atol)
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
    m, n = len(stages), len(y)
    return SimpleNamespace(
        t=np.array(ts), y=y, nfev=nfev, accepted=m, rejected=rejected, _q=q_by_sum(stages),
        _y0=np.fromiter(chain.from_iterable(y_olds), float, m * n).reshape(m, n).T)


def q_by_sum(stages):
    """The dense coefficients of steps whose six stages (K1, K3-K7, each a
    tuple of n floats) are `stages[s]`: Q_j = K1 P1j + K3 P3j + ... + K7 P7j
    added left to right in plain Python floats, every term included, as an
    (4, n, m) array. No numpy arithmetic or BLAS kernel takes part."""
    n = len(stages[0][0])
    q = [[[] for _ in range(n)] for _ in range(4)]
    for step in stages:
        for c in range(n):
            k = [stage[c] for stage in step]
            for j in range(4):
                total = k[0] * P[0][j]
                for i in range(1, 6):
                    total = total + k[i] * P[i][j]
                q[j][c].append(total)
    return np.array(q)


def end_state(solution):
    """The end state a solve records, without W: a `DenseSolution`'s closing
    record, or the y that `solve_by_loop` ends on."""
    if isinstance(solution, _rk.DenseSolution):
        return solution._records[-1, 3 - solution.n:3]
    return np.array(solution.y)


def assert_same_solve(dense, ref):
    for name in ("t", "_q", "_y0"):
        got, want = getattr(dense, name), getattr(ref, name)
        assert got.shape == want.shape, name
        assert np.array_equal(got.view(np.int64), want.view(np.int64)), name
    got, want = end_state(dense), end_state(ref)
    assert got.shape == want.shape == (dense.n,)
    assert np.array_equal(got.view(np.int64), want.view(np.int64))
    assert (dense.nfev, dense.accepted, dense.rejected) == (ref.nfev, ref.accepted,
                                                           ref.rejected)


def overflow_to_nan(W, w):
    """w' = 1e308 overflows w to inf, where its field turns; a step long
    enough to add -inf to it leaves NaN. max(|inf|, |nan|) = inf scales
    that step's error to 0, so the NaN state is accepted; the next step's
    scale is NaN, and that step shrinks until it underflows."""
    return -1e308 if w == math.inf else 1e308


def signed_zero(u, v):
    """u starts at -0.0 and stays zero, of either sign, on every step; the
    zero error lets each step grow tenfold, so 1e200 takes about 200 steps."""
    return -v


def plain(accel, y0, t_bound, tolerances=DEFAULT_TOLERANCES):
    """An acceleration with no dense solution of its own."""
    return None, accel, y0, t_bound, tolerances


def h_form():
    """The H-form solve of `verify.check_dynamics_h_u_consistency`."""
    return plain(dynamics.h_form_field(1.0, 1.0), (0.5, 0.0), 20.0, (1e-12, 1e-10))


LOOP_PROBLEMS = {
    **PROBLEMS,
    "regime-case1": lambda: regime(RegimeCase.NEGLIGIBLE_GRAVITY, 0.5, 0.3, 10.0),
    "regime-case3": lambda: regime(RegimeCase.NEGLIGIBLE_GRAVITY_INERTIA, 1.0, 0.2, 5.0),
    "epsilon=1e-4": lambda: u_form_at(ModelParams(1.0, 1.0, 0.0), epsilon=1e-4),
    "omega=31.4,beta=0.7": lambda: u_form_at(ModelParams(31.4, 0.7, 0.0)),
    "overflow-to-nan": lambda: plain(overflow_to_nan, (0.0,), 1000.0),
    "signed-zero": lambda: plain(signed_zero, (-0.0, 0.0), 1e200),
    # w = u* rises at 1e308, so W, the integral the stepper carries, overflows
    # to NaN: a stepper that let W into the error norm would reject there.
    "case3-overflow": lambda: plain(
        dynamics.regime_field(RegimeSpec.standard(RegimeCase.NEGLIGIBLE_GRAVITY_INERTIA),
                              1e-308), (0.0,), 20.0, REGIME_TOLERANCES),
    "h-form": h_form,
}
LOOP_RAISES = {"overflow-to-nan": StepSizeUnderflowError}


@pytest.mark.parametrize("name", LOOP_PROBLEMS)
def test_unrolled_loop_matches_the_loop_bit_for_bit(name):
    _, accel, *args = LOOP_PROBLEMS[name]()
    y0 = args[0]
    fun = field_of(accel, len(y0))
    # Overflowing runs leave non-finite stages; numpy need not warn about
    # them while Q is built, as in `integrate_regime`.
    with np.errstate(over="ignore", invalid="ignore"):
        if name in LOOP_RAISES:
            with pytest.raises(LOOP_RAISES[name]) as got:
                _rk.solve(accel, *args)
            with pytest.raises(LOOP_RAISES[name]) as want:
                solve_by_loop(fun, *args)
            assert str(got.value) == str(want.value)
        else:
            assert_same_solve(_rk.solve(accel, *args), solve_by_loop(fun, *args))


@pytest.mark.parametrize("name", [name for name in LOOP_PROBLEMS if name not in LOOP_RAISES])
def test_dense_coefficients_are_the_plain_left_to_right_sum(monkeypatch, name):
    _, accel, y0, t_bound, tolerances = LOOP_PROBLEMS[name]()
    stored = []

    class Recording(_rk.DenseSolution):
        def __init__(self, steps, *args):
            stored.append(bytes(steps))
            super().__init__(steps, *args)

    monkeypatch.setattr(_rk, "DenseSolution", Recording)
    with np.errstate(over="ignore", invalid="ignore"):  # Q of an overflowing run
        dense = _rk.solve(accel, y0, t_bound, tolerances)
        q = dense._q
    # Each record is the step's start time and the start state's first
    # slot, then the stages K1, K3-K6 as pairs; a step's K7 is the next
    # record's K1, the closing record's for the last step. A
    # one-component state's W is the first slot of each pair.
    skip = 2 - len(y0)
    records = list(_rk.STEP_RECORD.iter_unpack(stored[0]))
    pairs = [list(zip(record[2::2], record[3::2])) for record in records]
    stages = [[pair[skip:] for pair in own + [following[0]]]
              for own, following in zip(pairs, pairs[1:])]
    want = q_by_sum(stages)
    assert q.shape == want.shape == (4, len(y0), dense.accepted)
    assert np.array_equal(bits(q), bits(want))
    assert np.array_equal(bits([record[0] for record in records]), bits(dense.t))


def test_the_signed_zero_field_keeps_both_zeros():
    _, accel, *args = LOOP_PROBLEMS["signed-zero"]()
    dense = _rk.solve(accel, *args)
    u = dense._y0[0]
    assert dense.accepted > 100 and np.all(u == 0.0)
    assert np.signbit(u).any() and not np.signbit(u).all()


def test_the_overflow_field_accepts_a_nan_state():
    _, accel, *args = LOOP_PROBLEMS["overflow-to-nan"]()
    seen = []

    def recording(W, w):
        seen.append(w)
        return accel(W, w)

    with pytest.raises(StepSizeUnderflowError):
        _rk.solve(recording, *args)
    # w reached inf, and the last trial ran from a NaN state, which only an
    # accepted step leaves: a step that short turns no inf or finite w NaN.
    assert math.inf in seen
    assert all(math.isnan(w) for w in seen[-6:])


def test_the_case3_overflow_carries_a_nan_w_integral():
    _, accel, y0, t_bound, tolerances = LOOP_PROBLEMS["case3-overflow"]()
    stage_W = []

    def recording(W, w):
        stage_W.append(W)
        return accel(W, w)

    with np.errstate(over="ignore", invalid="ignore"):
        dense = _rk.solve(recording, y0, t_bound, tolerances)
    assert any(math.isnan(W) for W in stage_W) and dense.t[-1] == t_bound


@pytest.mark.parametrize("name", PROBLEMS)
def test_solve_calls_the_acceleration_once_per_stage(name):
    _, accel, *args = PROBLEMS[name]()
    calls = []

    def counting(u, v):
        calls.append(None)
        return accel(u, v)

    dense = _rk.solve(counting, *args)
    assert len(calls) == dense.nfev == 2 + 6 * (dense.accepted + dense.rejected)


def case4_field_by_copy(u, v):
    """The case-4 acceleration `regime_field` wrote out before it returned
    `u_form_field(0.0, 0.0)`, kept as its reference."""
    return 1.0 - math.sqrt(2.0 * (0.0 if u < 0.0 else u))


def test_case4_field_matches_its_written_out_copy_bit_for_bit():
    dense, _, *args = regime(RegimeCase.NEGLIGIBLE_VISCOSITY, 1.0, 0.5, REGIME_HORIZON_CAP)
    assert_same_solve(dense, _rk.solve(case4_field_by_copy, *args))


def blow_up(W, w):
    return w * w  # w = 1/(1 - t) leaves every float before t = 1


def huge(W, w):
    return -1e200  # its scaled RMS norm overflows, so the first guess is 0


def test_step_size_underflow_raises():
    with pytest.raises(StepSizeUnderflowError) as got:
        _rk.solve(blow_up, (1.0,), 2.0, (1e-10, 1e-8))
    with pytest.raises(StepSizeUnderflowError) as want:
        solve_by_loop(field_of(blow_up, 1), (1.0,), 2.0, (1e-10, 1e-8))
    assert str(got.value) == str(want.value)


def test_initial_step_underflow_raises():
    with pytest.raises(StepSizeUnderflowError, match="initial step size is zero") as got:
        _rk.solve(huge, (1.0,), 1.0, (1e-10, 1e-8))
    with pytest.raises(StepSizeUnderflowError) as want:
        solve_by_loop(field_of(huge, 1), (1.0,), 1.0, (1e-10, 1e-8))
    assert str(got.value) == str(want.value)


def test_step_budget_counts_accepted_and_rejected_steps(monkeypatch):
    _, accel, *args = PROBLEMS["gamma=1,dry"]()
    full = _rk.solve(accel, *args)
    steps = full.accepted + full.rejected
    assert full.rejected > 0
    monkeypatch.setattr(_rk, "MAX_STEPS", steps)
    assert_same_solve(_rk.solve(accel, *args), solve_by_loop(field_of(accel), *args))
    monkeypatch.setattr(_rk, "MAX_STEPS", steps - 1)
    with pytest.raises(NumericError, match=f"step budget of {steps - 1} steps .* at t = ") as got:
        _rk.solve(accel, *args)
    with pytest.raises(NumericError) as want:
        solve_by_loop(field_of(accel), *args)
    assert str(got.value) == str(want.value)


# The traced solve of the memory test, run in a fresh interpreter: once
# scipy.integrate is loaded, as this module loads it, the same solve runs
# about eight times slower under tracemalloc.
MEMORY_PROBE = """
import json, tracemalloc
from washburn import _rk, dynamics
from washburn.params import DEFAULT_TOLERANCES
tracemalloc.start()
dense = _rk.solve(dynamics.u_form_field(0.01, 0.0), (0.0, 0.0), 1e4, DEFAULT_TOLERANCES)
held, peak = tracemalloc.get_traced_memory()
tracemalloc.stop()
print(json.dumps([dense.accepted, held, peak]))
"""


def test_step_store_memory_per_accepted_step():
    # A lightly damped dry start from rest, the long run the store is sized
    # for. The growing bytearray and the exact-size bytes copy the solution
    # keeps peak at about 203 B per accepted step; a tuple of floats kept per
    # step would add over 400 B more. The solution holds the 12-double
    # records, 96 B per step, and builds no arrays until an array call; a
    # record that also kept K7, the next record's K1 (14 doubles), or the
    # bytearray's growth slack (up to 1/8) would pass 100 B.
    accepted, held, peak = fresh(MEMORY_PROBE)
    assert accepted > 20_000
    assert peak < 500 * accepted
    assert held < 100 * accepted
