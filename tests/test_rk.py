"""The in-house Dormand-Prince 5(4) stepper against scipy's RK45, the
controller it copies: same field evaluations, same accepted steps, same
final state to 1e-14, at the package's default tolerances."""
import numpy as np
import pytest
from scipy.integrate import solve_ivp

from washburn import _rk, dynamics
from washburn.dynamics import RegimeCase, RegimeSpec
from washburn.errors import NumericError, StepSizeUnderflowError
from washburn.integrate import (DEFAULT_TOLERANCES, REGIME_TOLERANCES, _series_seed, _solve,
                                default_horizon)
from washburn.params import ModelParams


def u_form(gamma, alpha):
    """The solve `integrate` makes at damping gamma (dry starts take the series seed)."""
    params = ModelParams(omega=1.0 / gamma**2, beta=1.0, alpha=alpha)
    horizon = default_horizon(params)
    dense, _ = _solve(params, 0.0, horizon, DEFAULT_TOLERANCES)
    start = float(dense.t[0])
    y0 = tuple(dense(start).tolist())  # the interpolant at x = 0 is the start state
    field = dynamics.u_form_field(params.damping, 0.0)
    return dense, field, start, y0, horizon, DEFAULT_TOLERANCES


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


@pytest.mark.parametrize("name", PROBLEMS)
def test_array_and_scalar_dense_output_agree_bit_for_bit(name):
    dense, *_ = PROBLEMS[name]()
    times = np.random.default_rng(11).uniform(0.0, float(dense.t[-1]), 1000)
    times[:3] = dense.t[[0, 1, -1]]  # step boundaries take the earlier step
    array = dense(times)
    scalar = np.array([[dense.at(t, i) for t in times.tolist()] for i in range(len(dense.y))])
    assert np.array_equal(array.view(np.int64), scalar.view(np.int64))


def test_series_seed_below_the_first_step():
    dense, *_ = u_form(1.0, 0.0)
    start = float(dense.t[0])
    times = np.array([0.0, 0.25 * start, 0.5 * start])
    u, v = _series_seed(1.0)(times)  # damping 1
    assert np.array_equal(dense(times), np.stack([u, v]))
    assert [dense.at(t) for t in times.tolist()] == u.tolist()


def test_step_size_underflow_raises():
    def blow_up(t, y):
        return (y[0] * y[0],)  # y = 1/(1 - t) leaves every float before t = 1

    with pytest.raises(StepSizeUnderflowError):
        _rk.solve(blow_up, 0.0, (1.0,), 2.0, 1e-8, 1e-10)


def test_initial_step_underflow_raises():
    def huge(t, y):
        return (-1e200,)  # its scaled RMS norm overflows, so the first guess is 0

    with pytest.raises(StepSizeUnderflowError, match="initial step size is zero"):
        _rk.solve(huge, 0.0, (1.0,), 1.0, 1e-8, 1e-10)


def test_step_budget_counts_accepted_and_rejected_steps(monkeypatch):
    _, field, t0, y0, t_bound, (abs_tol, rel_tol) = PROBLEMS["gamma=1,dry"]()
    full = _rk.solve(field, t0, y0, t_bound, rel_tol, abs_tol)
    steps = full.accepted + full.rejected
    assert full.rejected > 0
    monkeypatch.setattr(_rk, "MAX_STEPS", steps)
    assert _rk.solve(field, t0, y0, t_bound, rel_tol, abs_tol).y == full.y
    monkeypatch.setattr(_rk, "MAX_STEPS", steps - 1)
    with pytest.raises(NumericError, match=f"step budget of {steps - 1} steps .* at t = "):
        _rk.solve(field, t0, y0, t_bound, rel_tol, abs_tol)
