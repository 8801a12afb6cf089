"""The in-house Dormand-Prince 5(4) stepper against scipy's RK45, the
controller it copies: same field evaluations, same accepted steps, same
final state to 1e-14, at the package's default tolerances; against
`solve_by_loop`, the per-component loop it unrolls, bit for bit; its
dense output against `call_by_fancy_index` and `AtByLists`, the array and
scalar evaluators it replaced, bit for bit; the case-4 regime field
against `case4_field_by_copy`, the field it replaced, bit for bit; and
the memory its step store takes per accepted step."""
import math
import tracemalloc
from bisect import bisect_left
from itertools import chain
from types import SimpleNamespace

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from washburn import _rk, dynamics
from washburn._rk import (A21, A31, A32, A41, A42, A43, A51, A52, A53, A54, A61, A62, A63,
                          A64, A65, B1, B3, B4, B5, B6, C2, C3, C4, C5, E1, E3, E4, E5, E6,
                          E7, ERROR_EXPONENT, MAX_FACTOR, MIN_FACTOR, MIN_RTOL, P, SAFETY)
from washburn.dynamics import RegimeCase, RegimeSpec
from washburn.errors import NumericError, StepSizeUnderflowError
from washburn.integrate import (DEFAULT_TOLERANCES, REGIME_HORIZON_CAP, REGIME_TOLERANCES,
                                _series_seed, _solve, default_horizon)
from washburn.params import ModelParams


def u_form_at(params, epsilon=0.0):
    """The solve `integrate` makes (dry starts without epsilon take the series seed)."""
    horizon = default_horizon(params)
    dense, _ = _solve(params, epsilon, horizon, DEFAULT_TOLERANCES)
    start = float(dense.t[0])
    y0 = tuple(dense(start).tolist())  # the interpolant at x = 0 is the start state
    field = dynamics.u_form_field(params.damping, epsilon)
    return dense, field, start, y0, horizon, DEFAULT_TOLERANCES


def u_form(gamma, alpha):
    """`u_form_at` at damping gamma."""
    return u_form_at(ModelParams(omega=1.0 / gamma**2, beta=1.0, alpha=alpha))


def regime(case, beta, alpha, horizon):
    """The solve `integrate_regime` makes."""
    spec = RegimeSpec.standard(case)
    u0 = 0.5 * alpha * alpha
    y0 = (u0,) if spec.first_order else (u0, 0.0)
    field = dynamics.regime_field(spec, beta)
    abs_tol, rel_tol = REGIME_TOLERANCES
    dense = _rk.solve(field, 0.0, y0, horizon, rel_tol, abs_tol)
    return dense, field, 0.0, y0, horizon, REGIME_TOLERANCES


PROBLEMS = {
    "gamma=1,dry": lambda: u_form(1.0, 0.0),
    "gamma=3.16,alpha=1.5": lambda: u_form(3.16, 1.5),
    "gamma=0.5,alpha=1.4": lambda: u_form(0.5, 1.4),
    "regime-case2": lambda: regime(RegimeCase.NEGLIGIBLE_INERTIA, 1.0, 0.1, 5.0),
    "regime-case4": lambda: regime(RegimeCase.NEGLIGIBLE_VISCOSITY, 1.0, 0.5, 20.0),
}


@pytest.mark.parametrize("name", PROBLEMS)
def test_takes_the_steps_of_scipy_rk45(name):
    dense, field, t0, y0, t_bound, (abs_tol, rel_tol) = PROBLEMS[name]()
    ref = solve_ivp(field, (t0, t_bound), y0, method="RK45", rtol=rel_tol, atol=abs_tol,
                    dense_output=True)
    assert ref.status == 0
    assert dense.nfev == ref.nfev
    assert dense.accepted == ref.t.size - 1
    assert dense.nfev == 2 + 6 * (dense.accepted + dense.rejected)
    assert np.max(np.abs(np.array(dense.y) - ref.y[:, -1])) <= 1e-14
    times = np.random.default_rng(5).uniform(t0, t_bound, 1000)
    assert np.max(np.abs(dense(times) - ref.sol(times))) <= 1e-14


def call_by_fancy_index(dense, t):
    """The array path of `DenseSolution.__call__` before it gathered with
    `take`, kept as its reference: the fancy index leaves strided blocks."""
    t = np.asarray(t, dtype=float)
    k = np.searchsorted(dense.t, t, side="left") - 1
    np.clip(k, 0, dense.accepted - 1, out=k)
    h = dense._h[k]
    x = (t - dense.t[k]) / h
    q0, q1, q2, q3 = dense._q[:, :, k]
    y = dense._y0[:, k] + h * (x * (q0 + x * (q1 + x * (q2 + x * q3))))
    if dense._head is not None:
        early = t < dense._ts[0]
        if early.any():
            y[:, early] = dense._head(t[early])
    return y


class AtByLists:
    """The deleted `DenseSolution.at` with the `_hs`/`_qs`/`_y0s` lists it
    cached, kept as the reference of `DenseSolution.component`."""

    def __init__(self, dense):
        self._ts, self._head, self.accepted = dense._ts, dense._head, dense.accepted
        self._hs = dense._h.tolist()
        self._qs = dense._q.transpose(2, 1, 0).tolist()  # [step][component][j]
        self._y0s = dense._y0.T.tolist()

    def at(self, t, i=0):
        ts = self._ts
        if t < ts[0] and self._head is not None:
            return self._head(t)[i]
        k = min(max(bisect_left(ts, t) - 1, 0), self.accepted - 1)
        h = self._hs[k]
        x = (t - ts[k]) / h
        q0, q1, q2, q3 = self._qs[k][i]
        return self._y0s[k][i] + h * (x * (q0 + x * (q1 + x * (q2 + x * q3))))


def bits(a):
    return np.asarray(a, dtype=float).view(np.int64)


def reference_times(dense):
    """Unsorted times with every step boundary, times past both ends and
    below the start (the series head of a dry start)."""
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
    times = reference_times(dense)
    array = dense(times)
    scalar = np.array([[dense.component(i)(t) for t in times.tolist()]
                       for i in range(len(dense.y))])
    assert np.array_equal(bits(array), bits(scalar))
    assert np.array_equal(bits(dense(float(times[0]))), bits(array[:, 0]))


@pytest.mark.parametrize("name", PROBLEMS)
def test_dense_output_matches_its_references_bit_for_bit(name):
    dense, *_ = PROBLEMS[name]()
    assert dense._q.flags.c_contiguous and dense._y0.flags.c_contiguous
    times = reference_times(dense)
    for t in (times, times[:60].reshape(3, 20), times[:0]):
        got, want = dense(t), call_by_fancy_index(dense, t)
        assert got.shape == want.shape == (len(dense.y),) + t.shape
        assert np.array_equal(bits(got), bits(want))
    reference = AtByLists(dense)
    for i in range(len(dense.y)):
        u_at = dense.component(i)
        assert dense.component(i) is u_at
        assert np.array_equal(bits([u_at(t) for t in times.tolist()]),
                              bits([reference.at(t, i) for t in times.tolist()]))


def test_series_seed_below_the_first_step():
    dense, *_ = u_form(1.0, 0.0)
    start = float(dense.t[0])
    times = np.array([0.0, 0.25 * start, 0.5 * start])
    u, v = _series_seed(1.0)(times)  # damping 1
    assert np.array_equal(dense(times), np.stack([u, v]))
    assert [dense.component(0)(t) for t in times.tolist()] == u.tolist()
    assert [dense.component(1)(t) for t in times.tolist()] == v.tolist()


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


def solve_by_loop(fun, t0, y0, t_bound, rtol, atol):
    """The comprehension loop over a state of any length that `_rk.solve`
    unrolled, kept as its reference; returns the fields of its solution
    that `assert_same_solve` compares."""
    rtol = max(rtol, MIN_RTOL)
    max_steps = _rk.MAX_STEPS
    t = t0
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
    k = np.fromiter(chain.from_iterable(chain.from_iterable(stages)), float,
                    m * 6 * n).reshape(m, 6, n)
    return SimpleNamespace(
        t=np.array(ts), y=y, nfev=nfev, accepted=m, rejected=rejected,
        _q=np.ascontiguousarray((k.transpose(0, 2, 1) @ P).transpose(2, 1, 0)),
        _y0=np.fromiter(chain.from_iterable(y_olds), float, m * n).reshape(m, n).T)


def assert_same_solve(dense, ref):
    for name in ("t", "_q", "_y0"):
        got, want = getattr(dense, name), getattr(ref, name)
        assert got.shape == want.shape, name
        assert np.array_equal(got.view(np.int64), want.view(np.int64)), name
    assert len(dense.y) == len(ref.y)
    assert np.array_equal(np.array(dense.y).view(np.int64), np.array(ref.y).view(np.int64))
    assert (dense.nfev, dense.accepted, dense.rejected) == (ref.nfev, ref.accepted,
                                                           ref.rejected)


LOOP_PROBLEMS = {
    **PROBLEMS,
    "regime-case1": lambda: regime(RegimeCase.NEGLIGIBLE_GRAVITY, 0.5, 0.3, 10.0),
    "regime-case3": lambda: regime(RegimeCase.NEGLIGIBLE_GRAVITY_INERTIA, 1.0, 0.2, 5.0),
    "epsilon=1e-4": lambda: u_form_at(ModelParams(1.0, 1.0, 0.0), epsilon=1e-4),
    "omega=31.4,beta=0.7": lambda: u_form_at(ModelParams(31.4, 0.7, 0.0)),
}


@pytest.mark.parametrize("name", LOOP_PROBLEMS)
def test_unrolled_loop_matches_the_loop_bit_for_bit(name):
    dense, field, t0, y0, t_bound, (abs_tol, rel_tol) = LOOP_PROBLEMS[name]()
    assert_same_solve(_rk.solve(field, t0, y0, t_bound, rel_tol, abs_tol),
                      solve_by_loop(field, t0, y0, t_bound, rel_tol, abs_tol))


def case4_field_by_copy(t, y):
    """The case-4 field `regime_field` wrote out before it returned
    `u_form_field(0.0, 0.0)`, kept as its reference."""
    u, v = y
    return (v, 1.0 - math.sqrt(2.0 * (0.0 if u < 0.0 else u)))


def test_case4_field_matches_its_written_out_copy_bit_for_bit():
    dense, _, t0, y0, t_bound, (abs_tol, rel_tol) = regime(
        RegimeCase.NEGLIGIBLE_VISCOSITY, 1.0, 0.5, REGIME_HORIZON_CAP)
    assert_same_solve(dense, _rk.solve(case4_field_by_copy, t0, y0, t_bound, rel_tol, abs_tol))


def blow_up(t, y):
    return (y[0] * y[0],)  # y = 1/(1 - t) leaves every float before t = 1


def huge(t, y):
    return (-1e200,)  # its scaled RMS norm overflows, so the first guess is 0


def test_step_size_underflow_raises():
    with pytest.raises(StepSizeUnderflowError) as got:
        _rk.solve(blow_up, 0.0, (1.0,), 2.0, 1e-8, 1e-10)
    with pytest.raises(StepSizeUnderflowError) as want:
        solve_by_loop(blow_up, 0.0, (1.0,), 2.0, 1e-8, 1e-10)
    assert str(got.value) == str(want.value)


def test_initial_step_underflow_raises():
    with pytest.raises(StepSizeUnderflowError, match="initial step size is zero") as got:
        _rk.solve(huge, 0.0, (1.0,), 1.0, 1e-8, 1e-10)
    with pytest.raises(StepSizeUnderflowError) as want:
        solve_by_loop(huge, 0.0, (1.0,), 1.0, 1e-8, 1e-10)
    assert str(got.value) == str(want.value)


def test_step_budget_counts_accepted_and_rejected_steps(monkeypatch):
    _, field, t0, y0, t_bound, (abs_tol, rel_tol) = PROBLEMS["gamma=1,dry"]()
    full = _rk.solve(field, t0, y0, t_bound, rel_tol, abs_tol)
    steps = full.accepted + full.rejected
    assert full.rejected > 0
    monkeypatch.setattr(_rk, "MAX_STEPS", steps)
    assert_same_solve(_rk.solve(field, t0, y0, t_bound, rel_tol, abs_tol),
                      solve_by_loop(field, t0, y0, t_bound, rel_tol, abs_tol))
    monkeypatch.setattr(_rk, "MAX_STEPS", steps - 1)
    with pytest.raises(NumericError, match=f"step budget of {steps - 1} steps .* at t = ") as got:
        _rk.solve(field, t0, y0, t_bound, rel_tol, abs_tol)
    with pytest.raises(NumericError) as want:
        solve_by_loop(field, t0, y0, t_bound, rel_tol, abs_tol)
    assert str(got.value) == str(want.value)


def test_step_store_memory_per_accepted_step():
    # A lightly damped dry start, the long run the store is sized for. The
    # flat store and the dense coefficients peak at about 390 B per accepted
    # step; a tuple of floats kept per step would add over 400 B more.
    series = _series_seed(0.01)
    t0 = 1e-6
    abs_tol, rel_tol = DEFAULT_TOLERANCES
    tracemalloc.start()
    try:
        dense = _rk.solve(dynamics.u_form_field(0.01, 0.0), t0, series(t0), 1e4, rel_tol,
                          abs_tol, head=series)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert dense.accepted > 20_000
    assert peak < 500 * dense.accepted
