"""Dry starts against an independent solution.

The reference is scipy's DOP853 at rtol 1e-13 and atol 1e-15 on this
module's own right-hand side of the u-form model,
u'' = 1 - gamma u' - sqrt(2u). It cannot start at the corner u = 0, where
sqrt(2u) has no derivative, so it starts at s0 from this module's own
Taylor series of y = sqrt(2u), in which the dry start is regular, and the
series itself is the reference below s0. Nothing here but `integrate`
and `ModelParams` comes from the package.
"""
import math

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from washburn import ModelParams, integrate

S0 = 1e-5
SERIES_ORDER = 8


def corner_series(gamma):
    """Taylor coefficients b_k of y = sqrt(2u) = s + b_2 s^2 + ... from rest
    at u = 0: u = y^2/2 turns the model into y'^2 + y y'' + gamma y y' + y = 1,
    and its s^n coefficient gives b_(n+1) times (n+1)(n+2) plus the terms of
    lower coefficients."""
    b = [0.0, 1.0]
    for n in range(1, SERIES_ORDER):
        rest = (sum((i + 1) * b[i + 1] * (n - i + 1) * b[n - i + 1] for i in range(1, n))
                + sum(b[i] * (n - i + 2) * (n - i + 1) * b[n - i + 2] for i in range(2, n + 1))
                + gamma * sum(b[i] * (n - i + 1) * b[n - i + 1] for i in range(1, n + 1))
                + b[n])
        b.append(-rest / ((n + 1) * (n + 2)))
    return b


def series_state(b, s):
    """(u, v) = (y^2/2, y y') of the series b at the times s."""
    y = sum(bk * s**k for k, bk in enumerate(b))
    dy = sum(k * bk * s**(k - 1) for k, bk in enumerate(b) if k)
    return 0.5 * y * y, y * dy


def reference_u(gamma, s):
    """u at the sorted times s: the series up to S0, DOP853 from there."""
    b = corner_series(gamma)
    early = s <= S0
    u0, v0 = series_state(b, S0)

    def rhs(t, y):
        return (y[1], 1.0 - gamma * y[1] - math.sqrt(2.0 * max(y[0], 0.0)))

    ref = solve_ivp(rhs, (S0, float(s[-1])), (u0, v0), method="DOP853", rtol=1e-13,
                    atol=1e-15, t_eval=s[~early])
    assert ref.status == 0
    return np.concatenate((series_state(b, s[early])[0], ref.y[0]))


def test_corner_series_starts_as_the_closed_form():
    # u = s^2/2 - (1 + gamma) s^3/6 + (1 + gamma)(3 gamma + 1) s^4/72 + ...
    gamma = 2.0
    b = corner_series(gamma)
    u = np.polynomial.polynomial.polypow(b, 2)[:5] / 2.0
    assert u[:3].tolist() == [0.0, 0.0, 0.5]
    assert u[3] == pytest.approx(-(1.0 + gamma) / 6.0, rel=1e-15)
    assert u[4] == pytest.approx((1.0 + gamma) * (3.0 * gamma + 1.0) / 72.0, rel=1e-15)


@pytest.mark.parametrize("omega,run,bound", [
    (1.0, {}, 1e-8),
    (0.1, {}, 1e-8),
    (1.0, {"horizon": 1e-3, "sample_step": 1e-7}, 1e-14),
])
def test_dry_start_matches_the_reference(omega, run, bound):
    params = ModelParams(omega, 1.0, 0.0)
    traj = integrate(params, **run)
    error = np.max(np.abs(traj.u - reference_u(params.damping, traj.s)))
    assert error <= bound
